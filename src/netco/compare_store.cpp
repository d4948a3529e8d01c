#include "netco/compare_store.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.h"

namespace netco::core {

CompareStore::CompareStore(std::size_t capacity, std::size_t vote_quota,
                           int k)
    : capacity_(capacity), vote_quota_(vote_quota) {
  NETCO_ASSERT_MSG(k >= 1 && k <= kMaxReplicas,
                   "compare store fleet size must fit the 64-bit replica mask");
  for (KindList& list : lists_) {
    list.quota.assign(static_cast<std::size_t>(k), 0);
  }
}

CompareStore::Slot CompareStore::alloc_slot() {
  if (!free_.empty()) {
    const Slot slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<Slot>(key_.size());
  if (key_.size() == key_.capacity()) {
    // Double, but stop once at capacity + 1 slots — the most a
    // full-verify core ever holds — rather than doubling past it.
    const std::size_t bound = capacity_ + 1;
    std::size_t grown = std::max<std::size_t>(16, 2 * key_.size());
    if (key_.size() < bound) grown = std::min(grown, bound);
    for_each_column([grown](auto& column) { column.reserve(grown); });
  }
  // insert() sets every column; a free slot is one without kInUse.
  for_each_column([](auto& column) { column.emplace_back(); });
  // Two buckets per slot keeps the expected chain length below one.
  if (key_.size() * 2 > buckets_.size()) grow_index();
  return slot;
}

void CompareStore::grow_index() {
  buckets_.assign(std::max<std::size_t>(16, buckets_.size() * 2), kNil);
  bucket_mask_ = buckets_.size() - 1;
  for (Slot s = 0; s < key_.size(); ++s) {
    if ((flags_[s] & kInUse) == 0) continue;
    const std::size_t bucket = bucket_of(key_[s]);
    next_[s] = buckets_[bucket];
    buckets_[bucket] = s;
  }
}

void CompareStore::unlink_bucket(Slot slot) noexcept {
  const std::size_t bucket = bucket_of(key_[slot]);
  Slot cur = buckets_[bucket];
  if (cur == slot) {
    buckets_[bucket] = next_[slot];
    return;
  }
  while (cur != kNil && next_[cur] != slot) cur = next_[cur];
  NETCO_DASSERT(cur != kNil);  // the slot must be on its bucket chain
  if (cur != kNil) next_[cur] = next_[slot];
}

void CompareStore::unlink_age(Slot slot) noexcept {
  KindList& list = list_of(slot);
  const Slot prev = age_prev_[slot];
  const Slot next = age_next_[slot];
  if (prev != kNil) age_next_[prev] = next; else list.head = next;
  if (next != kNil) age_prev_[next] = prev; else list.tail = prev;
  age_prev_[slot] = kNil;
  age_next_[slot] = kNil;
}

void CompareStore::release_quota(Slot slot) noexcept {
  if ((flags_[slot] & kQuotaSlot) == 0) return;
  flags_[slot] = static_cast<std::uint8_t>(flags_[slot] & ~kQuotaSlot);
  std::size_t& count =
      list_of(slot).quota[static_cast<std::size_t>(first_replica_[slot])];
  NETCO_DASSERT(count > 0);  // a quota count never underflows
  --count;
}

CompareStore::Slot CompareStore::insert(SlotKind kind, std::uint64_t key,
                                        std::int64_t now_ns,
                                        int first_replica, bool holds_quota) {
  const Slot slot = alloc_slot();
  KindList& list = lists_[static_cast<std::size_t>(kind)];
  key_[slot] = key;
  first_seen_ns_[slot] = now_ns;
  mask_[slot] = 0;
  tally_[slot] = 0.0;
  packet_id_[slot] = 0;
  bytes_[slot] = 0;
  first_replica_[slot] = static_cast<std::int16_t>(first_replica);
  kind_[slot] = kind;
  flags_[slot] = kInUse;
  if (holds_quota && first_replica >= 0 &&
      static_cast<std::size_t>(first_replica) < list.quota.size()) {
    flags_[slot] |= kQuotaSlot;
    ++list.quota[static_cast<std::size_t>(first_replica)];
  }

  const std::size_t bucket = bucket_of(key);
  next_[slot] = buckets_[bucket];
  buckets_[bucket] = slot;

  age_prev_[slot] = list.tail;
  age_next_[slot] = kNil;
  if (list.tail != kNil) age_next_[list.tail] = slot; else list.head = slot;
  list.tail = slot;
  ++list.size;
  return slot;
}

CompareStore::Slot CompareStore::capacity_victim() const noexcept {
  // Bounded oldest-first scan (ties on tally keep the first = oldest
  // candidate), with a two-level preference: an *unreleased* slot always
  // goes before a released one — a just-released slot evicted while its
  // sibling copies are still in flight would let the recreated slot
  // release the same packet twice — and *escalated* routing memos are
  // spared entirely unless the kind holds nothing else (losing a memo
  // can split one packet's copies across the fast and full paths).
  Slot best_open = kNil;      // unreleased, non-escalated
  Slot best_released = kNil;  // released, non-escalated
  double best_open_tally = 0.0;
  double best_released_tally = 0.0;
  Slot s = head(SlotKind::kVote);
  for (std::size_t scanned = 0; s != kNil && scanned < kVictimScanLimit;
       s = age_next_[s], ++scanned) {
    if ((flags_[s] & kEscalated) != 0) continue;
    if ((flags_[s] & kReleased) != 0) {
      if (best_released == kNil || tally_[s] < best_released_tally) {
        best_released = s;
        best_released_tally = tally_[s];
      }
    } else if (best_open == kNil || tally_[s] < best_open_tally) {
      best_open = s;
      best_open_tally = tally_[s];
    }
  }
  if (best_open != kNil) return best_open;
  if (best_released != kNil) return best_released;
  // The sampled window was all memos: walk on for the first evictable
  // slot; a kind of nothing but memos surrenders its oldest one.
  for (; s != kNil; s = age_next_[s]) {
    if ((flags_[s] & kEscalated) == 0) return s;
  }
  return head(SlotKind::kVote);
}

CompareStore::Slot CompareStore::quota_victim(int replica) const noexcept {
  for (Slot s = head(SlotKind::kVote); s != kNil; s = age_next_[s]) {
    if ((flags_[s] & kQuotaSlot) != 0 && first_replica_[s] == replica) {
      return s;
    }
  }
  return kNil;
}

VoteEvicted CompareStore::vote_state(Slot s) const noexcept {
  VoteEvicted out;
  out.key = key_[s];
  out.packet_id = packet_id_[s];
  out.mask = mask_[s];
  out.bytes = bytes_[s];
  out.first_replica = first_replica_[s];
  out.released = released(s);
  out.escalated = escalated(s);
  out.first_seen_ns = first_seen_ns_[s];
  return out;
}

VoteEvicted CompareStore::expel(Slot slot, VoteEvictReason reason) {
  VoteEvicted out = vote_state(slot);
  out.reason = reason;
  if (reason == VoteEvictReason::kCapacity) ++evicted_capacity_;
  else ++evicted_quota_;
  erase(slot);
  return out;
}

CompareStore::Slot CompareStore::insert_vote(
    std::uint64_t key, std::uint64_t packet_id, std::int64_t now_ns,
    std::uint32_t bytes, int first_replica, bool escalated,
    std::vector<VoteEvicted>& evicted) {
  // Escalated memos neither consume nor trigger the quota: only an insert
  // that is about to take a quota slot may push out its replica's oldest
  // singleton.
  const KindList& votes = lists_[static_cast<std::size_t>(SlotKind::kVote)];
  if (!escalated && first_replica >= 0 &&
      static_cast<std::size_t>(first_replica) < votes.quota.size() &&
      vote_quota_ > 0 &&
      votes.quota[static_cast<std::size_t>(first_replica)] >= vote_quota_) {
    const Slot victim = quota_victim(first_replica);
    if (victim != kNil) evicted.push_back(expel(victim, VoteEvictReason::kQuota));
  }
  while (votes.size >= vote_limit()) {
    evicted.push_back(expel(capacity_victim(), VoteEvictReason::kCapacity));
  }

  const Slot slot =
      insert(SlotKind::kVote, key, now_ns, first_replica, !escalated);
  packet_id_[slot] = packet_id;
  bytes_[slot] = bytes;
  if (escalated) flags_[slot] |= kEscalated;
  return slot;
}

bool CompareStore::add_vote(Slot slot, int replica, double weight) noexcept {
  // A replica the 64-bit mask cannot represent must be rejected, not
  // shifted into UB. (Config layers validate k <= kMaxReplicas up front,
  // so hitting this means a corrupted replica id, not an oversized fleet.)
  if (replica < 0 || replica >= kMaxReplicas) return false;
  const std::uint64_t bit = 1ULL << static_cast<unsigned>(replica);
  if ((mask_[slot] & bit) != 0) return false;
  mask_[slot] |= bit;
  tally_[slot] += weight;
  if (std::popcount(mask_[slot]) == 2) release_quota(slot);
  return true;
}

void CompareStore::set_released(Slot slot) noexcept {
  flags_[slot] |= kReleased;
  if (kind_[slot] == SlotKind::kVote) release_quota(slot);
}

void CompareStore::erase(Slot slot) {
  release_quota(slot);
  unlink_bucket(slot);
  unlink_age(slot);
  --list_of(slot).size;
  flags_[slot] = 0;
  next_[slot] = kNil;
  exemplar_[slot] = net::Packet{};
  free_.push_back(slot);
}

void CompareStore::set_capacity(std::size_t capacity,
                                std::vector<VoteEvicted>& evicted) {
  capacity_ = capacity;
  while (size(SlotKind::kVote) > vote_limit()) {
    evicted.push_back(expel(capacity_victim(), VoteEvictReason::kCapacity));
  }
}

void CompareStore::clear() noexcept {
  for_each_column([](auto& column) { column.clear(); });
  buckets_.clear();
  bucket_mask_ = 0;
  free_.clear();
  for (KindList& list : lists_) {
    list.head = kNil;
    list.tail = kNil;
    list.size = 0;
    std::fill(list.quota.begin(), list.quota.end(), 0);
  }
}

CompareAudit CompareStore::audit() const {
  CompareAudit out;
  out.arena = key_.size();
  out.free_slots = free_.size();
  for (std::size_t k = 0; k < kSlotKinds; ++k) {
    const KindList& list = lists_[k];
    SlotAudit& kind = out.kinds[k];
    kind.size = list.size;
    kind.quota_counts = list.quota;
    kind.quota_held.assign(list.quota.size(), 0);
    std::int64_t prev_seen = std::numeric_limits<std::int64_t>::min();
    std::size_t walked = 0;
    for (Slot s = list.head; s != kNil && walked++ <= out.arena;  // cycles
         s = age_next_[s]) {
      // A slot of another kind on this list leaves the recount short.
      if (kind_[s] != static_cast<SlotKind>(k)) continue;
      ++kind.age_entries;
      if (first_seen_ns_[s] < prev_seen) kind.age_ordered = false;
      prev_seen = first_seen_ns_[s];
    }
  }
  out.of(SlotKind::kEntry).capacity = capacity_;
  out.of(SlotKind::kVote).capacity = vote_limit();
  out.of(SlotKind::kTombstone).capacity =
      std::numeric_limits<std::size_t>::max();
  for (const Slot head : buckets_) {
    std::size_t guard = 0;
    for (Slot s = head; s != kNil; s = next_[s]) {
      SlotAudit& kind = out.of(kind_[s]);
      ++kind.index_entries;
      const auto replica = static_cast<std::size_t>(first_replica_[s]);
      if (should_hold_quota(s) && replica < kind.quota_held.size()) {
        ++kind.quota_held[replica];
      }
      if (++guard > out.arena) break;  // cycle guard
    }
  }
  return out;
}

bool CompareStore::should_hold_quota(Slot s) const noexcept {
  // Ground truth from the slot's state, independent of kQuotaSlot (the
  // flag that drives the counters), so a flag set or cleared at the
  // wrong time shows as a counter/recount mismatch.
  const int voters = std::popcount(mask_[s]);
  switch (kind_[s]) {
    case SlotKind::kEntry:
      return voters == 1;
    case SlotKind::kVote:
      return (flags_[s] & (kEscalated | kReleased)) == 0 && voters <= 1;
    case SlotKind::kTombstone:
      return false;
  }
  return false;
}

}  // namespace netco::core
