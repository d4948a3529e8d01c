// Property test: CompareStore's vote kind vs a naive map model, and the
// store's kinds vs each other.
//
// The store buys its O(1) fast path with intrusive bookkeeping (SoA
// arena, bucket chains, per-kind age lists and per-replica quota
// counters) — exactly the machinery that rots silently. A long randomized
// op stream drives the vote kind and a deliberately dumb reference model
// in lockstep and demands equivalence:
//
//  * tally/mask/released equality for every live key;
//  * eviction order: capacity scans the kVictimScanLimit oldest vote
//    slots and evicts the lowest-tally *unreleased* one (tie: oldest),
//    falling back to released slots and — only when nothing else is
//    left — escalated memos; quota overflow evicts that replica's
//    oldest singleton (memos neither charge nor trigger the quota);
//  * quota-slot conservation: counters match a recount at all times, so
//    no squeeze/evict/release interleaving can strand a slot.
//
// A second stream interleaves entry and tombstone slots under the same
// keys and checks after every step that an operation on one kind leaves
// every other kind's size, age order and quota counts alone, and that
// live plus free slots fill the arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "netco/compare_store.h"

namespace netco::core {
namespace {

struct ModelEntry {
  std::uint64_t key = 0;
  std::uint64_t packet_id = 0;
  std::uint64_t mask = 0;
  double tally = 0.0;
  std::int64_t first_seen_ns = 0;
  int first_replica = -1;
  bool released = false;
  bool escalated = false;
  bool quota_held = false;
};

/// The reference: a flat vector in insertion (age) order with the same
/// eviction rules spelled out the slow, obvious way.
class ModelCache {
 public:
  ModelCache(std::size_t capacity, std::size_t quota, int k)
      : capacity_(std::max<std::size_t>(1, capacity)), quota_(quota), k_(k) {}

  [[nodiscard]] const ModelEntry* find(std::uint64_t key) const {
    for (const ModelEntry& e : entries_) {
      if (e.key == key) return &e;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t quota_count(int replica) const {
    std::size_t n = 0;
    for (const ModelEntry& e : entries_) {
      if (e.quota_held && e.first_replica == replica) ++n;
    }
    return n;
  }

  void insert(std::uint64_t key, std::uint64_t packet_id, std::int64_t now,
              int first_replica, bool escalated,
              std::vector<ModelEntry>& evicted) {
    // Escalated memos neither charge nor trigger the quota.
    if (!escalated && first_replica >= 0 && first_replica < k_ &&
        quota_ > 0 && quota_count(first_replica) >= quota_) {
      evict_quota(first_replica, evicted);
    }
    while (entries_.size() >= capacity_) evict_capacity(evicted);
    ModelEntry e;
    e.key = key;
    e.packet_id = packet_id;
    e.first_seen_ns = now;
    e.first_replica = first_replica;
    e.escalated = escalated;
    e.quota_held = !escalated && first_replica >= 0 && first_replica < k_;
    entries_.push_back(e);
  }

  bool add_vote(std::uint64_t key, int replica, double weight) {
    ModelEntry* e = mutable_find(key);
    const std::uint64_t bit = 1ULL << static_cast<unsigned>(replica);
    if ((e->mask & bit) != 0) return false;
    e->mask |= bit;
    e->tally += weight;
    if (std::popcount(e->mask) == 2) e->quota_held = false;
    return true;
  }

  void set_released(std::uint64_t key) {
    ModelEntry* e = mutable_find(key);
    e->released = true;
    e->quota_held = false;
  }

  void erase(std::uint64_t key) {
    entries_.erase(std::find_if(
        entries_.begin(), entries_.end(),
        [key](const ModelEntry& e) { return e.key == key; }));
  }

  void sweep(std::int64_t horizon, std::vector<ModelEntry>& dead) {
    while (!entries_.empty() && entries_.front().first_seen_ns < horizon) {
      dead.push_back(entries_.front());
      entries_.erase(entries_.begin());
    }
  }

  void set_capacity(std::size_t capacity, std::vector<ModelEntry>& evicted) {
    capacity_ = std::max<std::size_t>(1, capacity);
    while (entries_.size() > capacity_) evict_capacity(evicted);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<ModelEntry>& entries() const {
    return entries_;
  }

 private:
  ModelEntry* mutable_find(std::uint64_t key) {
    for (ModelEntry& e : entries_) {
      if (e.key == key) return &e;
    }
    return nullptr;
  }

  void evict_capacity(std::vector<ModelEntry>& evicted) {
    // Bounded sample of the oldest entries; lowest tally wins and a tie
    // keeps the earliest (oldest) candidate. Unreleased entries go before
    // released ones; escalated memos only when nothing else is left.
    const std::size_t npos = entries_.size();
    const std::size_t scan =
        std::min(entries_.size(), CompareStore::kVictimScanLimit);
    std::size_t best_open = npos, best_released = npos;
    for (std::size_t i = 0; i < scan; ++i) {
      const ModelEntry& e = entries_[i];
      if (e.escalated) continue;
      if (e.released) {
        if (best_released == npos ||
            e.tally < entries_[best_released].tally) {
          best_released = i;
        }
      } else if (best_open == npos || e.tally < entries_[best_open].tally) {
        best_open = i;
      }
    }
    std::size_t victim = best_open != npos ? best_open : best_released;
    if (victim == npos) {
      for (std::size_t i = scan; i < entries_.size(); ++i) {
        if (!entries_[i].escalated) {
          victim = i;
          break;
        }
      }
    }
    if (victim == npos) victim = 0;  // nothing but memos: oldest goes
    evicted.push_back(entries_[victim]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  void evict_quota(int replica, std::vector<ModelEntry>& evicted) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].quota_held && entries_[i].first_replica == replica) {
        evicted.push_back(entries_[i]);
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  std::size_t capacity_;
  std::size_t quota_;
  int k_;
  std::vector<ModelEntry> entries_;
};

constexpr SlotKind kVote = SlotKind::kVote;

void expect_equivalent(const CompareStore& cache, const ModelCache& model,
                       std::uint64_t step) {
  ASSERT_EQ(cache.size(kVote), model.size()) << "step " << step;
  for (const ModelEntry& e : model.entries()) {
    const CompareStore::Slot slot = cache.find(kVote, e.key);
    ASSERT_NE(slot, CompareStore::kNil)
        << "step " << step << ": key " << e.key << " missing";
    EXPECT_EQ(cache.mask(slot), e.mask) << "step " << step;
    EXPECT_DOUBLE_EQ(cache.tally(slot), e.tally) << "step " << step;
    EXPECT_EQ(cache.released(slot), e.released) << "step " << step;
    EXPECT_EQ(cache.escalated(slot), e.escalated) << "step " << step;
    EXPECT_EQ(cache.first_seen_ns(slot), e.first_seen_ns) << "step " << step;
    EXPECT_EQ(cache.first_replica(slot), e.first_replica) << "step " << step;
  }

  const CompareAudit full = cache.audit();
  const SlotAudit& audit = full.of(kVote);
  ASSERT_TRUE(audit.consistent())
      << "step " << step << ": size=" << audit.size
      << " age=" << audit.age_entries << " index=" << audit.index_entries;
  ASSERT_EQ(full.live_slots() + full.free_slots, full.arena)
      << "step " << step << ": free=" << full.free_slots
      << " arena=" << full.arena;
  EXPECT_TRUE(audit.age_ordered) << "step " << step;
  EXPECT_LE(audit.size, audit.capacity) << "step " << step;
  ASSERT_EQ(audit.quota_counts.size(), audit.quota_held.size());
  for (std::size_t r = 0; r < audit.quota_counts.size(); ++r) {
    EXPECT_EQ(audit.quota_counts[r], audit.quota_held[r])
        << "step " << step << " replica " << r << ": quota counter drift";
    EXPECT_EQ(audit.quota_counts[r], model.quota_count(static_cast<int>(r)))
        << "step " << step << " replica " << r << ": quota vs model";
  }
}

void expect_same_evictions(const std::vector<VoteEvicted>& real,
                           const std::vector<ModelEntry>& expected,
                           std::uint64_t step) {
  ASSERT_EQ(real.size(), expected.size()) << "step " << step;
  for (std::size_t i = 0; i < real.size(); ++i) {
    EXPECT_EQ(real[i].key, expected[i].key)
        << "step " << step << ": eviction order diverged at casualty " << i;
    EXPECT_EQ(real[i].mask, expected[i].mask) << "step " << step;
    EXPECT_EQ(real[i].released, expected[i].released) << "step " << step;
    EXPECT_EQ(real[i].escalated, expected[i].escalated) << "step " << step;
    EXPECT_EQ(real[i].first_seen_ns, expected[i].first_seen_ns)
        << "step " << step;
  }
}

/// Drives the store's vote kind and the model in lockstep, one random op
/// per step. A small key space keeps find/vote hitting live slots.
class VoteOps {
 public:
  VoteOps(CompareStore& cache, std::size_t capacity, std::size_t quota, int k)
      : cache_(cache),
        model_(capacity, quota, k),
        capacity_(capacity),
        key_dist_(1, 4 * capacity),
        replica_dist_(0, k - 1) {}

  [[nodiscard]] const ModelCache& model() const { return model_; }

  void step(std::mt19937_64& rng, std::int64_t now, std::uint64_t step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 45) {  // insert a fresh key (+ its first vote, like the core)
      const std::uint64_t key = key_dist_(rng);
      if (model_.find(key) != nullptr) return;
      const int replica = replica_dist_(rng);
      // 1-in-8 inserts are escalated routing memos (quota-exempt,
      // eviction-spared), roughly the sampled mode's election share.
      const bool escalated = (rng() % 8) == 0;
      std::vector<VoteEvicted> evicted;
      std::vector<ModelEntry> expected;
      const auto slot = cache_.insert_vote(key, key * 31, now, 200, replica,
                                           escalated, evicted);
      model_.insert(key, key * 31, now, replica, escalated, expected);
      expect_same_evictions(evicted, expected, step);
      if (!escalated) {  // memos carry no votes in the core
        const double w = static_cast<double>(weight_dist_(rng)) / 4.0;
        EXPECT_TRUE(cache_.add_vote(slot, replica, w));
        EXPECT_TRUE(model_.add_vote(key, replica, w));
      }
    } else if (op < 75) {  // vote on a live slot
      const std::uint64_t key = live_key(rng);
      if (key == 0) return;
      const int replica = replica_dist_(rng);
      const double w = static_cast<double>(weight_dist_(rng)) / 4.0;
      const auto slot = cache_.find(kVote, key);
      ASSERT_NE(slot, CompareStore::kNil);
      EXPECT_EQ(cache_.add_vote(slot, replica, w),
                model_.add_vote(key, replica, w))
          << "step " << step << ": duplicate-vote detection diverged";
    } else if (op < 85) {  // release or erase a live slot
      const std::uint64_t key = live_key(rng);
      if (key == 0) return;
      const auto slot = cache_.find(kVote, key);
      ASSERT_NE(slot, CompareStore::kNil);
      if ((rng() & 1) != 0) {
        cache_.set_released(slot);
        model_.set_released(key);
      } else {
        cache_.erase(slot);
        model_.erase(key);
      }
    } else if (op < 95) {  // sweep everything older than a random horizon
      const std::int64_t horizon =
          now - static_cast<std::int64_t>(rng() % 20000);
      std::vector<ModelEntry> expected;
      model_.sweep(horizon, expected);
      std::size_t i = 0;
      cache_.sweep(kVote, horizon, [&](CompareStore::Slot victim) {
        ASSERT_LT(i, expected.size()) << "step " << step;
        EXPECT_EQ(cache_.key(victim), expected[i].key)
            << "step " << step << ": sweep order diverged";
        ++i;
      });
      EXPECT_EQ(i, expected.size()) << "step " << step;
    } else {  // cache squeeze / restore
      const std::size_t target = 1 + rng() % capacity_;
      std::vector<VoteEvicted> evicted;
      std::vector<ModelEntry> expected;
      cache_.set_capacity(target, evicted);
      model_.set_capacity(target, expected);
      expect_same_evictions(evicted, expected, step);
    }
  }

 private:
  /// A uniformly drawn live key, or 0 when the kind is empty.
  std::uint64_t live_key(std::mt19937_64& rng) const {
    const auto& live = model_.entries();
    if (live.empty()) return 0;
    return live[rng() % live.size()].key;
  }

  CompareStore& cache_;
  ModelCache model_;
  std::size_t capacity_;
  std::uniform_int_distribution<std::uint64_t> key_dist_;
  std::uniform_int_distribution<int> replica_dist_;
  std::uniform_int_distribution<int> weight_dist_{0, 4};
};

void run_fuzz(std::uint64_t seed, std::size_t capacity, std::size_t quota,
              int k, std::uint64_t ops) {
  CompareStore cache(capacity, quota, k);
  VoteOps votes(cache, capacity, quota, k);
  std::mt19937_64 rng(seed);
  std::int64_t now = 0;  // only moves forward, so sweeps stay meaningful

  for (std::uint64_t step = 0; step < ops; ++step) {
    now += static_cast<std::int64_t>(rng() % 1000);
    votes.step(rng, now, step);
    if (::testing::Test::HasFatalFailure()) return;
    if (step % 64 == 0 || step + 1 == ops) {
      expect_equivalent(cache, votes.model(), step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_equivalent(cache, votes.model(), ops);
}

TEST(VoteCacheUnit, AddVoteRejectsUnrepresentableReplica) {
  // 1ULL << replica is UB outside [0, 64): the store must reject such a
  // vote (like a duplicate) instead of corrupting the mask and quota.
  CompareStore cache(4, 2, 4);
  std::vector<VoteEvicted> evicted;
  const auto slot = cache.insert_vote(1, 31, 0, 200, 0, false, evicted);
  EXPECT_FALSE(cache.add_vote(slot, -1, 1.0));
  EXPECT_FALSE(cache.add_vote(slot, 64, 1.0));
  EXPECT_FALSE(cache.add_vote(slot, 1000, 1.0));
  EXPECT_EQ(cache.mask(slot), 0u);
  EXPECT_DOUBLE_EQ(cache.tally(slot), 0.0);
  EXPECT_TRUE(cache.add_vote(slot, 63, 1.0));  // the mask's last legal bit
  EXPECT_EQ(cache.mask(slot), 1ULL << 63);
}

TEST(VoteCacheUnit, EscalatedMemosAreQuotaExempt) {
  CompareStore cache(16, /*vote_quota=*/1, /*k=*/2);
  std::vector<VoteEvicted> evicted;
  cache.insert_vote(1, 31, 0, 64, /*first_replica=*/0, /*escalated=*/false,
                    evicted);
  // Memos from the same replica neither charge the quota nor push out its
  // singleton.
  cache.insert_vote(2, 62, 1, 64, 0, true, evicted);
  cache.insert_vote(3, 93, 2, 64, 0, true, evicted);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.size(kVote), 3u);
  // A second real singleton overflows the quota of 1: the oldest
  // singleton goes, not a memo.
  cache.insert_vote(4, 124, 3, 64, 0, false, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1u);
  EXPECT_EQ(evicted[0].reason, VoteEvictReason::kQuota);
}

TEST(VoteCacheUnit, CapacityEvictionPrefersUnreleasedOverReleasedOverMemos) {
  CompareStore cache(3, /*vote_quota=*/100, /*k=*/4);
  std::vector<VoteEvicted> evicted;
  // Oldest first: a zero-tally *released* slot, an escalated memo, and an
  // unreleased slot with a higher tally.
  const auto released = cache.insert_vote(1, 31, 0, 64, 0, false, evicted);
  cache.set_released(released);
  cache.insert_vote(2, 62, 1, 64, 1, true, evicted);  // memo
  const auto open = cache.insert_vote(3, 93, 2, 64, 2, false, evicted);
  EXPECT_TRUE(cache.add_vote(open, 2, 1.0));
  ASSERT_TRUE(evicted.empty());

  // Full: the unreleased slot is the victim even though the released one
  // is older AND lower-tally — evicting a released slot while sibling
  // copies are in flight is the duplicate-egress hazard.
  const auto fourth = cache.insert_vote(4, 124, 3, 64, 3, false, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 3u);

  // With no unreleased slot left, the *oldest* released slot goes before
  // the memo.
  cache.set_released(fourth);
  cache.insert_vote(5, 155, 4, 64, 3, false, evicted);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1].key, 1u);
  EXPECT_TRUE(evicted[1].released);

  // Memos only as the very last resort: fill the kind with nothing but
  // memos and the oldest one surrenders.
  cache.insert_vote(6, 186, 5, 64, 0, true, evicted);  // evicts 5 (unreleased)
  cache.insert_vote(7, 217, 6, 64, 1, true, evicted);  // evicts 4 (released)
  ASSERT_EQ(evicted.size(), 4u);
  EXPECT_EQ(evicted[2].key, 5u);
  EXPECT_EQ(evicted[3].key, 4u);
  cache.insert_vote(8, 248, 7, 64, 2, true, evicted);
  ASSERT_EQ(evicted.size(), 5u);
  EXPECT_EQ(evicted[4].key, 2u);  // the oldest memo
  EXPECT_TRUE(evicted[4].escalated);
}

TEST(VoteCacheProperty, MatchesModelUnderQuotaPressure) {
  run_fuzz(/*seed=*/0xF00D, /*capacity=*/32, /*quota=*/4, /*k=*/4,
           /*ops=*/20000);
}

TEST(VoteCacheProperty, MatchesModelUnderTinyCapacity) {
  run_fuzz(/*seed=*/0xBEEF, /*capacity=*/8, /*quota=*/2, /*k=*/3,
           /*ops=*/20000);
}

TEST(VoteCacheProperty, MatchesModelWithoutQuotaPressure) {
  run_fuzz(/*seed=*/0xCAFE, /*capacity=*/64, /*quota=*/1000, /*k=*/5,
           /*ops=*/20000);
}

/// What an operation on another kind must leave alone: the kind's slots
/// in age order and its per-replica quota counts.
struct KindView {
  std::vector<CompareStore::Slot> age;
  std::vector<std::size_t> quota;
  bool operator==(const KindView&) const = default;
};

KindView view_of(const CompareStore& store, SlotKind kind, int k) {
  KindView view;
  for (auto s = store.head(kind); s != CompareStore::kNil;
       s = store.next_in_age(s)) {
    view.age.push_back(s);
  }
  for (int r = 0; r < k; ++r) view.quota.push_back(store.quota_count(kind, r));
  return view;
}

/// A uniformly drawn live slot of `kind`, or kNil when it is empty.
CompareStore::Slot live_slot(const CompareStore& store, SlotKind kind,
                             std::mt19937_64& rng) {
  if (store.size(kind) == 0) return CompareStore::kNil;
  auto s = store.head(kind);
  for (auto skip = rng() % store.size(kind); skip > 0; --skip) {
    s = store.next_in_age(s);
  }
  return s;
}

TEST(VoteCacheProperty, KindsNeverDisturbEachOther) {
  constexpr std::size_t kCapacity = 16;
  constexpr int kReplicas = 4;
  CompareStore store(kCapacity, /*vote_quota=*/3, kReplicas);
  VoteOps votes(store, kCapacity, 3, kReplicas);
  std::mt19937_64 rng(0xD15C);
  // Entries and tombstones draw from the vote ops' key space, so every
  // kind's slots share index chains with the others.
  std::uniform_int_distribution<std::uint64_t> key_dist(1, 4 * kCapacity);
  std::uniform_int_distribution<int> replica_dist(0, kReplicas - 1);
  std::int64_t now = 0;

  for (std::uint64_t step = 0; step < 20000; ++step) {
    now += static_cast<std::int64_t>(rng() % 1000);
    const int op = static_cast<int>(rng() % 100);
    const SlotKind touched = op < 50   ? SlotKind::kVote
                             : op < 80 ? SlotKind::kEntry
                                       : SlotKind::kTombstone;
    std::array<KindView, kSlotKinds> before;
    for (std::size_t k = 0; k < kSlotKinds; ++k) {
      before[k] = view_of(store, static_cast<SlotKind>(k), kReplicas);
    }

    const std::int64_t horizon =
        now - static_cast<std::int64_t>(rng() % 20000);
    const int sub = static_cast<int>(rng() % 4);
    if (touched == SlotKind::kVote) {
      votes.step(rng, now, step);
    } else if (sub == 0) {  // insert, as the core does for its kind
      const int replica = replica_dist(rng);
      const bool entry = touched == SlotKind::kEntry;
      const auto slot = store.insert(touched, key_dist(rng), now,
                                     entry ? replica : -1, entry);
      if (entry) {
        EXPECT_TRUE(store.add_vote(slot, replica, 0.0));
      }
    } else if (sub == 1) {  // erase a live slot
      const auto slot = live_slot(store, touched, rng);
      if (slot != CompareStore::kNil) store.erase(slot);
    } else if (sub == 2) {  // sweep the kind
      store.sweep(touched, horizon, [](CompareStore::Slot) {});
    } else if (touched == SlotKind::kEntry) {  // confirm or release
      const auto slot = live_slot(store, touched, rng);
      if (slot != CompareStore::kNil) {
        if ((rng() & 1) != 0) {
          store.add_vote(slot, replica_dist(rng), 0.0);
        } else {
          store.set_released(slot);
        }
      }
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;

    for (std::size_t k = 0; k < kSlotKinds; ++k) {
      const auto kind = static_cast<SlotKind>(k);
      if (kind == touched) continue;
      ASSERT_EQ(view_of(store, kind, kReplicas), before[k])
          << "step " << step << ": an op on kind "
          << static_cast<int>(touched) << " moved kind " << k;
    }
    const CompareAudit audit = store.audit();
    ASSERT_EQ(audit.live_slots() + audit.free_slots, audit.arena)
        << "step " << step;
    for (const SlotAudit& kind : audit.kinds) {
      ASSERT_TRUE(kind.consistent()) << "step " << step;
      ASSERT_TRUE(kind.age_ordered) << "step " << step;
      ASSERT_EQ(kind.quota_counts, kind.quota_held) << "step " << step;
    }
    if (step % 64 == 0) {
      expect_equivalent(store, votes.model(), step);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;
    }
  }
  expect_equivalent(store, votes.model(), 20000);
}

TEST(VoteCacheDeathTest, RejectsFleetBeyondReplicaMask) {
  EXPECT_DEATH(CompareStore(16, 4, 0), "64-bit replica mask");
  EXPECT_DEATH(CompareStore(16, 4, CompareStore::kMaxReplicas + 1),
               "64-bit replica mask");
}

}  // namespace
}  // namespace netco::core
