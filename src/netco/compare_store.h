// CompareStore: the compare's one packet store (§III–IV, §XII).
//
// The paper's trusted compare keeps one packet cache with a bounded hold
// time, per-replica isolated buffers and a cleanup pass. This store holds
// every kind of compare state as slots of one growable structure-of-arrays
// arena:
//
//  * kEntry — a full-verify entry: the exemplar packet, the mask of
//    replicas that delivered it, and the released/recovered flags.
//    Packets whose keys collide are separate entry slots under one key;
//    CompareCore tells them apart by comparing exemplars.
//  * kVote — a fast-path weighted tally (each replica copy adds that
//    replica's health weight), or an escalated routing memo.
//  * kTombstone — a released packet whose state is already gone.
//    CompareCore sweeps it one hold_timeout after it is laid.
//
// One hash index maps a packet's base key to all of its slots and one
// freelist recycles them. Each kind has its own intrusive oldest-first
// age list, size and per-replica quota count, so an operation on one kind
// never moves another kind's bookkeeping; audit() recounts all of it. The
// arena allocates nothing until the first insert and grows with
// occupancy.
//
// Quota slots (the paper's logically isolated buffers): a slot may hold
// one slot of its first replica's quota. An entry holds it while it has a
// single contribution, a released first-copy singleton included. A vote
// slot holds it while it has at most one voter and has not released.
// Escalated memos and tombstones never hold one. The second distinct
// vote returns it on either kind, release returns it on a vote slot, and
// erase always returns it.
//
// The vote kind evicts by itself: capacity eviction approximates
// keep-the-top-k tallies with a bounded scan over the oldest slots
// (kVictimScanLimit, so a full store stays O(1) per ingest), with two
// safety preferences layered on top. *Unreleased* slots go before
// released ones: a just-released slot evicted while sibling copies are
// still in flight would let a recreated slot release the same packet
// twice. *Escalated* memos go last of all (only when nothing else is
// left), because losing a memo can split one packet's copies across the
// fast and full paths. Entry eviction is CompareCore's policy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "net/packet.h"

namespace netco::core {

/// What a store slot holds (see the file comment).
enum class SlotKind : std::uint8_t { kEntry, kVote, kTombstone };
inline constexpr std::size_t kSlotKinds = 3;

/// Why a vote slot was pushed out of the store.
enum class VoteEvictReason : std::uint8_t {
  kCapacity,  ///< vote kind full: lowest tally (tie: oldest) evicted
  kQuota,     ///< first replica exceeded its singleton quota
};

/// A vote slot's state at the moment it died, so the caller can emit
/// verdicts/traces for it.
struct VoteEvicted {
  std::uint64_t key = 0;
  std::uint64_t packet_id = 0;
  std::uint64_t mask = 0;  ///< distinct replicas that voted
  std::uint32_t bytes = 0;
  std::int16_t first_replica = -1;
  bool released = false;
  bool escalated = false;
  std::int64_t first_seen_ns = 0;
  VoteEvictReason reason = VoteEvictReason::kCapacity;
};

/// One kind's bookkeeping: incremental counters next to ground truth
/// recounted from the arena.
struct SlotAudit {
  std::size_t size = 0;           ///< incremental count
  std::size_t capacity = 0;       ///< logical bound (SIZE_MAX: unbounded)
  std::size_t age_entries = 0;    ///< recount: age-list length
  std::size_t index_entries = 0;  ///< recount: this kind's slots in the index
  /// The age list is oldest-first by first_seen.
  bool age_ordered = true;
  /// Per-replica quota counters (left) vs a recount of the slots whose
  /// state holds a quota slot (see the file comment), made without the
  /// flag that drives the counters.
  std::vector<std::size_t> quota_counts;
  std::vector<std::size_t> quota_held;

  /// The size counter, the age list and the index agree.
  [[nodiscard]] bool consistent() const noexcept {
    return size == age_entries && size == index_entries;
  }
};

/// Recount audit of the whole store, for online invariant checking
/// (faultinject::check_audit; fault-injection soaks call it between
/// batches).
struct CompareAudit {
  std::size_t arena = 0;       ///< allocated slots
  std::size_t free_slots = 0;  ///< freelist length
  std::array<SlotAudit, kSlotKinds> kinds{};

  [[nodiscard]] SlotAudit& of(SlotKind kind) noexcept {
    return kinds[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const SlotAudit& of(SlotKind kind) const noexcept {
    return kinds[static_cast<std::size_t>(kind)];
  }
  /// Live slots of every kind; with free_slots they fill the arena.
  [[nodiscard]] std::size_t live_slots() const noexcept {
    std::size_t live = 0;
    for (const SlotAudit& kind : kinds) live += kind.size;
    return live;
  }
};

class CompareStore {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNil = 0xFFFFFFFFu;
  /// Hard fleet-size ceiling: voter sets are 64-bit replica bitmasks, so
  /// replica ids live in [0, kMaxReplicas). Configuration layers
  /// (CompareConfig, SoakOptions) validate against this at construction —
  /// an oversized fleet must fail loudly up front, not as silent vote
  /// drops deep in the fast path.
  static constexpr int kMaxReplicas = 64;
  /// Vote capacity eviction scans at most this many of the oldest vote
  /// slots for the lowest tally — a bounded approximation of global top-k
  /// that keeps a full store O(1) per ingest (the property test's
  /// reference model replicates the same window).
  static constexpr std::size_t kVictimScanLimit = 16;

  /// `capacity` bounds the entry and vote kinds (see set_capacity());
  /// `vote_quota` is the vote kind's per-replica singleton quota.
  CompareStore(std::size_t capacity, std::size_t vote_quota, int k);

  /// First slot of `kind` under `key` for which `match(slot)` holds, or
  /// kNil. O(chain): the index keeps two buckets per arena slot.
  template <typename Match>
  [[nodiscard]] Slot find(SlotKind kind, std::uint64_t key,
                          Match&& match) const {
    if (buckets_.empty()) return kNil;
    Slot slot = buckets_[bucket_of(key)];
    while (slot != kNil) {
      const Slot ahead = next_[slot];
      if (ahead != kNil) __builtin_prefetch(&key_[ahead]);
      if (key_[slot] == key && kind_[slot] == kind && match(slot)) {
        return slot;
      }
      slot = ahead;
    }
    return kNil;
  }
  [[nodiscard]] Slot find(SlotKind kind, std::uint64_t key) const {
    return find(kind, key, [](Slot) { return true; });
  }

  /// Allocates a slot of `kind` under `key` at the young end of its
  /// kind's age list. `holds_quota` charges one slot of `first_replica`'s
  /// quota of that kind (ignored for a replica outside [0, k)).
  Slot insert(SlotKind kind, std::uint64_t key, std::int64_t now_ns,
              int first_replica, bool holds_quota);

  /// Vote-kind insert for a key that has no vote slot yet. May first
  /// evict — for a non-escalated insert, the first replica's oldest
  /// singleton once its quota is full, then capacity victims — appending
  /// each casualty to `evicted`. Escalated memos take no quota slot.
  Slot insert_vote(std::uint64_t key, std::uint64_t packet_id,
                   std::int64_t now_ns, std::uint32_t bytes,
                   int first_replica, bool escalated,
                   std::vector<VoteEvicted>& evicted);

  /// Adds `weight` from `replica` to the slot's tally. Returns false (and
  /// changes nothing) if that replica already voted — the duplicate-vote
  /// signal — or if `replica` is outside [0, 64), which the bitmask
  /// cannot represent. The second *distinct* voter returns the quota slot.
  bool add_vote(Slot slot, int replica, double weight) noexcept;

  /// Marks the slot released. A vote slot returns its quota slot; an
  /// entry keeps it until a second contribution.
  void set_released(Slot slot) noexcept;
  /// Marks an entry restored from a checkpoint (see CompareCore::restore).
  void set_recovered(Slot slot) noexcept { flags_[slot] |= kRecovered; }
  /// Overwrites the voter mask (checkpoint restore).
  void set_mask(Slot slot, std::uint64_t mask) noexcept { mask_[slot] = mask; }

  /// Removes the slot (returning its quota slot if still held).
  void erase(Slot slot);

  /// Oldest-first sweep of one kind: every slot with first_seen_ns <
  /// horizon_ns is handed to `on_dead(slot)` (read its state there) and
  /// then erased. `on_dead` may insert slots of other kinds.
  template <typename OnDead>
  void sweep(SlotKind kind, std::int64_t horizon_ns, OnDead&& on_dead) {
    for (Slot victim = head(kind);
         victim != kNil && first_seen_ns_[victim] < horizon_ns;
         victim = head(kind)) {
      on_dead(victim);
      erase(victim);
    }
  }

  /// Rebinds the capacity of the entry and vote kinds, evicting vote
  /// slots — lowest tally first — until that kind fits. Entries above the
  /// new bound are left to the caller's cleanup pass.
  void set_capacity(std::size_t capacity, std::vector<VoteEvicted>& evicted);

  /// Drops every slot (no eviction records; checkpoint-restore path).
  void clear() noexcept;

  /// Full-recount audit (see CompareAudit).
  [[nodiscard]] CompareAudit audit() const;

  // --- per-slot accessors (slot must be live) -----------------------------
  [[nodiscard]] std::uint64_t key(Slot s) const noexcept { return key_[s]; }
  [[nodiscard]] std::int64_t first_seen_ns(Slot s) const noexcept {
    return first_seen_ns_[s];
  }
  [[nodiscard]] std::uint64_t mask(Slot s) const noexcept { return mask_[s]; }
  [[nodiscard]] int first_replica(Slot s) const noexcept {
    return first_replica_[s];
  }
  [[nodiscard]] bool released(Slot s) const noexcept {
    return (flags_[s] & kReleased) != 0;
  }
  [[nodiscard]] bool recovered(Slot s) const noexcept {
    return (flags_[s] & kRecovered) != 0;
  }
  [[nodiscard]] bool escalated(Slot s) const noexcept {
    return (flags_[s] & kEscalated) != 0;
  }
  [[nodiscard]] bool holds_quota(Slot s) const noexcept {
    return (flags_[s] & kQuotaSlot) != 0;
  }
  /// Entry kind: the first copy received.
  [[nodiscard]] net::Packet& exemplar(Slot s) noexcept { return exemplar_[s]; }
  [[nodiscard]] const net::Packet& exemplar(Slot s) const noexcept {
    return exemplar_[s];
  }
  /// Vote kind: the tally, and the whole state a dying slot reports.
  [[nodiscard]] double tally(Slot s) const noexcept { return tally_[s]; }
  [[nodiscard]] VoteEvicted vote_state(Slot s) const noexcept;

  // --- per-kind views -----------------------------------------------------
  /// Oldest slot of `kind`, or kNil; next_in_age() walks toward the young
  /// end.
  [[nodiscard]] Slot head(SlotKind kind) const noexcept {
    return lists_[static_cast<std::size_t>(kind)].head;
  }
  [[nodiscard]] Slot next_in_age(Slot s) const noexcept {
    return age_next_[s];
  }
  [[nodiscard]] std::size_t size(SlotKind kind) const noexcept {
    return lists_[static_cast<std::size_t>(kind)].size;
  }
  /// Quota slots of `replica` held by slots of `kind`.
  [[nodiscard]] std::size_t quota_count(SlotKind kind,
                                        int replica) const noexcept {
    return lists_[static_cast<std::size_t>(kind)]
        .quota[static_cast<std::size_t>(replica)];
  }
  /// The vote kind's bound: the store's capacity, but at least one slot.
  [[nodiscard]] std::size_t vote_limit() const noexcept {
    return capacity_ > 0 ? capacity_ : 1;
  }
  [[nodiscard]] std::uint64_t evicted_capacity() const noexcept {
    return evicted_capacity_;
  }
  [[nodiscard]] std::uint64_t evicted_quota() const noexcept {
    return evicted_quota_;
  }

 private:
  static constexpr std::uint8_t kInUse = 1u << 0;
  static constexpr std::uint8_t kReleased = 1u << 1;
  static constexpr std::uint8_t kEscalated = 1u << 2;
  static constexpr std::uint8_t kQuotaSlot = 1u << 3;
  static constexpr std::uint8_t kRecovered = 1u << 4;

  /// One kind's intrusive age list, size and quota counts.
  struct KindList {
    Slot head = kNil;
    Slot tail = kNil;
    std::size_t size = 0;
    std::vector<std::size_t> quota;
  };

  [[nodiscard]] std::size_t bucket_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(hash_mix(key, kBucketSalt)) & bucket_mask_;
  }
  [[nodiscard]] KindList& list_of(Slot s) noexcept {
    return lists_[static_cast<std::size_t>(kind_[s])];
  }

  /// Applies `f` to every arena column.
  template <typename F>
  void for_each_column(F&& f) {
    f(key_);
    f(first_seen_ns_);
    f(mask_);
    f(tally_);
    f(packet_id_);
    f(bytes_);
    f(first_replica_);
    f(kind_);
    f(flags_);
    f(exemplar_);
    f(next_);
    f(age_prev_);
    f(age_next_);
  }
  Slot alloc_slot();
  void grow_index();
  void unlink_bucket(Slot slot) noexcept;
  void unlink_age(Slot slot) noexcept;
  void release_quota(Slot slot) noexcept;
  /// Whether the slot's state says it holds a quota slot (audit recount).
  [[nodiscard]] bool should_hold_quota(Slot s) const noexcept;
  [[nodiscard]] Slot capacity_victim() const noexcept;
  [[nodiscard]] Slot quota_victim(int replica) const noexcept;
  [[nodiscard]] VoteEvicted expel(Slot slot, VoteEvictReason reason);

  /// Index salt, distinct from the sampled election's salt so the two do
  /// not correlate their collision patterns.
  static constexpr std::uint64_t kBucketSalt = 0x7EC0CACE5ULL;

  std::size_t capacity_ = 0;
  std::size_t vote_quota_ = 0;
  std::uint64_t evicted_capacity_ = 0;
  std::uint64_t evicted_quota_ = 0;

  // SoA arena columns, indexed by Slot.
  std::vector<std::uint64_t> key_;
  std::vector<std::int64_t> first_seen_ns_;
  std::vector<std::uint64_t> mask_;
  std::vector<double> tally_;
  std::vector<std::uint64_t> packet_id_;
  std::vector<std::uint32_t> bytes_;
  std::vector<std::int16_t> first_replica_;
  std::vector<SlotKind> kind_;
  std::vector<std::uint8_t> flags_;
  std::vector<net::Packet> exemplar_;
  std::vector<Slot> next_;      ///< bucket chain
  std::vector<Slot> age_prev_;  ///< intrusive age list of the slot's kind
  std::vector<Slot> age_next_;

  std::vector<Slot> buckets_;
  std::size_t bucket_mask_ = 0;
  std::vector<Slot> free_;
  std::array<KindList, kSlotKinds> lists_;
};

}  // namespace netco::core
