// Unit and property tests for CompareCore — the majority-vote packet cache
// at the heart of NetCo. The §IV/§III invariants under test:
//
//   I1  a packet is released at most once;
//   I2  under kMajority, a packet is released only after a strict majority
//       of replicas delivered it;
//   I3  a packet delivered by fewer than a quorum of replicas (fabricated/
//       rerouted/modified minority traffic) is never released and is
//       evicted within the hold timeout;
//   I4  same-replica duplicates never advance the vote;
//   I5  a single replica flooding unique packets cannot evict other
//       replicas' pending packets beyond its own quota (buffer isolation),
//       and trips the rate-limit block advice;
//   I6  replicas absent from a threshold of agreed packets trigger the
//       unavailability alarm.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "net/headers.h"
#include "netco/compare_core.h"

namespace netco::core {
namespace {

net::Packet numbered_packet(std::uint32_t n, std::size_t payload = 64,
                            std::uint8_t fill = 0) {
  std::vector<std::byte> data(payload, std::byte{fill});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                          .src = net::MacAddress::from_id(1)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                      .dst = net::Ipv4Address::from_id(2),
                      .identification = static_cast<std::uint16_t>(n)},
      net::UdpHeader{.src_port = static_cast<std::uint16_t>(n >> 16),
                     .dst_port = 5001},
      data);
}

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::milliseconds(ms);
}

TEST(CompareCore, QuorumArithmetic) {
  CompareConfig c;
  c.k = 2;
  EXPECT_EQ(c.quorum(), 2);
  c.k = 3;
  EXPECT_EQ(c.quorum(), 2);
  c.k = 5;
  EXPECT_EQ(c.quorum(), 3);
  c.k = 7;
  EXPECT_EQ(c.quorum(), 4);
}

TEST(CompareCore, ReleasesOnSecondOfThree) {
  CompareCore core(CompareConfig{.k = 3});
  const auto p = numbered_packet(1);
  EXPECT_FALSE(core.ingest(0, p, at_ms(0)).has_value());
  const auto released = core.ingest(1, p, at_ms(0));
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(*released, p);
  EXPECT_EQ(core.stats().released, 1u);
}

TEST(CompareCore, ThirdCopyIgnoredAfterRelease) {
  CompareCore core(CompareConfig{.k = 3});
  const auto p = numbered_packet(1);
  core.ingest(0, p, at_ms(0));
  core.ingest(1, p, at_ms(0));
  EXPECT_FALSE(core.ingest(2, p, at_ms(0)).has_value());  // I1
  EXPECT_EQ(core.stats().released, 1u);
  EXPECT_EQ(core.stats().late_after_release, 1u);
  // Paper-faithful retention keeps the completed entry until the hold
  // timeout; the sweep then cleans it.
  EXPECT_EQ(core.stats().cache_entries, 1u);
  core.sweep(at_ms(100));
  EXPECT_EQ(core.stats().cache_entries, 0u);
}

TEST(CompareCore, K5NeedsThree) {
  CompareCore core(CompareConfig{.k = 5});
  const auto p = numbered_packet(9);
  EXPECT_FALSE(core.ingest(0, p, at_ms(0)).has_value());
  EXPECT_FALSE(core.ingest(3, p, at_ms(0)).has_value());
  EXPECT_TRUE(core.ingest(4, p, at_ms(0)).has_value());  // I2
}

TEST(CompareCore, SameReplicaDuplicatesDoNotVote) {
  CompareCore core(CompareConfig{.k = 3});
  const auto p = numbered_packet(1);
  core.ingest(0, p, at_ms(0));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(core.ingest(0, p, at_ms(0)).has_value());  // I4
  }
  EXPECT_EQ(core.stats().duplicates_same_port, 10u);
  EXPECT_EQ(core.stats().released, 0u);
}

TEST(CompareCore, MinorityPacketEvictedOnTimeout) {
  CompareConfig config{.k = 3};
  config.hold_timeout = sim::Duration::milliseconds(10);
  CompareCore core(config);
  const auto fabricated = numbered_packet(666);
  EXPECT_FALSE(core.ingest(0, fabricated, at_ms(0)).has_value());
  EXPECT_EQ(core.sweep(at_ms(5)), 0u);   // not yet
  EXPECT_EQ(core.sweep(at_ms(11)), 1u);  // I3
  EXPECT_EQ(core.stats().evicted_timeout, 1u);
  EXPECT_EQ(core.stats().released, 0u);

  // Even if the same packet shows up again later, the vote restarts.
  EXPECT_FALSE(core.ingest(1, fabricated, at_ms(12)).has_value());
}

TEST(CompareCore, DifferentPacketsTrackedIndependently) {
  CompareCore core(CompareConfig{.k = 3});
  const auto p1 = numbered_packet(1);
  const auto p2 = numbered_packet(2);
  core.ingest(0, p1, at_ms(0));
  core.ingest(0, p2, at_ms(0));
  // One vote each: neither released.
  EXPECT_EQ(core.stats().released, 0u);
  const auto r1 = core.ingest(1, p1, at_ms(0));
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, p1);
  const auto r2 = core.ingest(2, p2, at_ms(0));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, p2);
}

TEST(CompareCore, FullPacketModeDistinguishesPayloadBits) {
  // Bit-by-bit: a one-bit payload difference is a different packet.
  CompareCore core(CompareConfig{.k = 3});
  auto benign = numbered_packet(1);
  auto tampered = benign;
  net::corrupt_byte(tampered, tampered.size() - 1);
  core.ingest(0, benign, at_ms(0));
  EXPECT_FALSE(core.ingest(1, tampered, at_ms(0)).has_value());
  // Only the two benign copies agree.
  EXPECT_TRUE(core.ingest(2, benign, at_ms(0)).has_value());
}

TEST(CompareCore, HeaderOnlyModeIgnoresPayload) {
  CompareConfig config{.k = 3};
  config.mode = CompareMode::kHeaderOnly;
  config.header_prefix = 42;  // Eth(14) + IPv4(20) + UDP(8), untagged
  CompareCore core(config);
  auto a = numbered_packet(1, 64, 0x00);
  auto b = numbered_packet(1, 64, 0xFF);  // same headers, different payload
  core.ingest(0, a, at_ms(0));
  const auto released = core.ingest(1, b, at_ms(0));
  ASSERT_TRUE(released.has_value());
  // The exemplar (first copy) is what gets released — the documented
  // trust consequence of header-only comparison.
  EXPECT_EQ(*released, a);
}

TEST(CompareCore, HashedModeMatchesOnContentHash) {
  CompareConfig config{.k = 3};
  config.mode = CompareMode::kHashed;
  CompareCore core(config);
  const auto p = numbered_packet(4);
  core.ingest(0, p, at_ms(0));
  EXPECT_TRUE(core.ingest(2, p, at_ms(0)).has_value());
}

TEST(CompareCore, FirstCopyPolicyReleasesImmediately) {
  CompareConfig config{.k = 2};
  config.policy = ReleasePolicy::kFirstCopy;
  config.hold_timeout = sim::Duration::milliseconds(10);
  CompareCore core(config);
  const auto p = numbered_packet(1);
  EXPECT_TRUE(core.ingest(0, p, at_ms(0)).has_value());
  // Partner confirms: no mismatch recorded.
  EXPECT_FALSE(core.ingest(1, p, at_ms(1)).has_value());
  core.sweep(at_ms(20));
  EXPECT_EQ(core.stats().mismatch_detected, 0u);
}

TEST(CompareCore, FirstCopyPolicyDetectsDisagreement) {
  CompareConfig config{.k = 2};
  config.policy = ReleasePolicy::kFirstCopy;
  config.hold_timeout = sim::Duration::milliseconds(10);
  CompareCore core(config);
  auto honest = numbered_packet(1);
  auto tampered = honest;
  net::corrupt_byte(tampered, tampered.size() - 1);
  // Replica 0 delivers the original, replica 1 a modified version: both
  // released (detection cannot prevent), but the timeout exposes that
  // neither packet was confirmed by the partner.
  EXPECT_TRUE(core.ingest(0, honest, at_ms(0)).has_value());
  EXPECT_TRUE(core.ingest(1, tampered, at_ms(0)).has_value());
  core.sweep(at_ms(20));
  EXPECT_EQ(core.stats().mismatch_detected, 2u);  // detection alarm
}

TEST(CompareCore, RateLimitFlagsFloodingReplica) {
  CompareConfig config{.k = 3};
  config.rate_limit_packets = 100;
  config.rate_window = sim::Duration::milliseconds(10);
  config.per_replica_quota = 1000;
  config.cache_capacity = 10'000;
  CompareCore core(config);

  for (std::uint32_t i = 0; i < 150; ++i) {
    core.ingest(1, numbered_packet(i), at_ms(1));
  }
  const auto advice = core.take_advice();
  ASSERT_EQ(advice.block_replicas.size(), 1u);  // I5 (advice part)
  EXPECT_EQ(advice.block_replicas[0], 1);
}

TEST(CompareCore, RateWindowForgetsOldArrivals) {
  CompareConfig config{.k = 3};
  config.rate_limit_packets = 100;
  config.rate_window = sim::Duration::milliseconds(10);
  config.per_replica_quota = 1000;
  config.cache_capacity = 10'000;
  CompareCore core(config);

  // 150 packets, but spread over 15× the window: never above the limit.
  for (std::uint32_t i = 0; i < 150; ++i) {
    core.ingest(1, numbered_packet(i), at_ms(i));
  }
  EXPECT_TRUE(core.take_advice().block_replicas.empty());
}

TEST(CompareCore, QuotaIsolatesFloodingReplica) {
  CompareConfig config{.k = 3};
  config.per_replica_quota = 32;
  config.cache_capacity = 10'000;
  config.rate_limit_packets = 1'000'000;  // disable blocking for this test
  CompareCore core(config);

  // Replica 0 contributes one honest pending packet.
  const auto honest = numbered_packet(0xABCD);
  core.ingest(0, honest, at_ms(0));

  // Replica 1 floods unique garbage well past its quota.
  for (std::uint32_t i = 0; i < 500; ++i) {
    core.ingest(1, numbered_packet(1'000'000 + i), at_ms(1));
  }
  EXPECT_GT(core.stats().evicted_quota, 0u);

  // The honest packet survived the flood and still completes its quorum.
  EXPECT_TRUE(core.ingest(2, honest, at_ms(2)).has_value());  // I5
}

TEST(CompareCore, InactivityAlarmAfterThreshold) {
  CompareConfig config{.k = 3};
  config.inactivity_threshold = 20;
  CompareCore core(config);

  // Replica 2 is dead: every packet completes with replicas {0, 1} and
  // times out waiting for the third.
  for (std::uint32_t i = 0; i < 25; ++i) {
    core.ingest(0, numbered_packet(i), at_ms(static_cast<int>(i)));
    core.ingest(1, numbered_packet(i), at_ms(static_cast<int>(i)));
  }
  core.sweep(at_ms(1000));  // finalize everything
  const auto advice = core.take_advice();
  ASSERT_EQ(advice.inactive_replicas.size(), 1u);  // I6
  EXPECT_EQ(advice.inactive_replicas[0], 2);
}

TEST(CompareCore, NoInactivityAlarmForMinorityPackets) {
  // Fabricated packets that never reach quorum must NOT count against the
  // honest replicas that (correctly) never forwarded them.
  CompareConfig config{.k = 3};
  config.inactivity_threshold = 5;
  config.hold_timeout = sim::Duration::milliseconds(1);
  CompareCore core(config);
  for (std::uint32_t i = 0; i < 50; ++i) {
    core.ingest(0, numbered_packet(i), at_ms(static_cast<int>(2 * i)));
    core.sweep(at_ms(static_cast<int>(2 * i + 1) + 1));
  }
  EXPECT_TRUE(core.take_advice().inactive_replicas.empty());
}

TEST(CompareCore, CapacityCleanupEvictsOldestFirst) {
  CompareConfig config{.k = 3};
  config.cache_capacity = 64;
  config.cleanup_low_water = 0.5;
  config.per_replica_quota = 10'000;
  config.rate_limit_packets = 1'000'000;
  CompareCore core(config);

  for (std::uint32_t i = 0; i < 65; ++i) {
    core.ingest(0, numbered_packet(i), at_ms(static_cast<int>(i)));
  }
  EXPECT_GE(core.stats().cleanup_passes, 1u);
  EXPECT_GT(core.last_cleanup_work(), 0u);
  EXPECT_LE(core.stats().cache_entries, 33u);

  // The newest packet survived; an old one was evicted.
  EXPECT_TRUE(core.ingest(1, numbered_packet(64), at_ms(70)).has_value());
  EXPECT_FALSE(core.ingest(1, numbered_packet(0), at_ms(70)).has_value());
}

// ---------------------------------------------------------------------------
// Property sweep: random adversarial interleavings preserve I1–I3.
// ---------------------------------------------------------------------------

struct PropertyParam {
  int k;
  CompareMode mode;
  std::uint64_t seed;
};

class CompareProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(CompareProperty, MajorityInvariantsHoldUnderRandomAdversary) {
  const auto param = GetParam();
  CompareConfig config{.k = param.k};
  config.mode = param.mode;
  config.hold_timeout = sim::Duration::milliseconds(50);
  config.cache_capacity = 100'000;
  config.per_replica_quota = 100'000;
  config.rate_limit_packets = 1'000'000'000;
  CompareCore core(config);
  Rng rng(param.seed);

  const int quorum = config.quorum();
  const int honest = quorum;  // exactly a quorum of honest replicas
  int released_honest = 0;
  int released_total = 0;
  std::int64_t clock_ms = 0;

  for (std::uint32_t n = 0; n < 300; ++n) {
    clock_ms += 1;
    const auto honest_packet = numbered_packet(n);

    // Adversarial replicas inject garbage before, between and after the
    // honest copies, in random order.
    std::vector<std::pair<int, net::Packet>> events;
    for (int r = 0; r < honest; ++r) events.push_back({r, honest_packet});
    for (int r = honest; r < param.k; ++r) {
      switch (rng.uniform_u64(4)) {
        case 0:  // drop: contribute nothing
          break;
        case 1:  // forward honestly (adversary behaving for cover)
          events.push_back({r, honest_packet});
          break;
        case 2: {  // modified copy
          auto tampered = honest_packet;
          net::corrupt_byte(tampered, tampered.size() - 1);
          events.push_back({r, tampered});
          break;
        }
        case 3:  // fabricated packet
          events.push_back({r, numbered_packet(0x80000000u + n)});
          break;
      }
    }
    // Shuffle the event order.
    for (std::size_t i = events.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_u64(i));
      std::swap(events[i - 1], events[j]);
    }

    int releases_this_packet = 0;
    for (auto& [replica, packet] : events) {
      const auto released =
          core.ingest(replica, std::move(packet), at_ms(clock_ms));
      if (released.has_value()) {
        ++released_total;
        // I2/I3: whatever is released must be the honest packet — a
        // minority (fabricated or tampered) packet can never win, because
        // the adversary controls fewer than quorum replicas.
        EXPECT_EQ(*released, honest_packet) << "packet " << n;
        ++releases_this_packet;
        ++released_honest;
      }
    }
    // I1: at most one release per packet.
    EXPECT_LE(releases_this_packet, 1) << "packet " << n;
    // The honest quorum always delivers: exactly one release.
    EXPECT_EQ(releases_this_packet, 1) << "packet " << n;

    if (n % 50 == 0) core.sweep(at_ms(clock_ms));
  }
  core.sweep(at_ms(clock_ms + 1000));
  EXPECT_EQ(released_total, 300);
  EXPECT_EQ(core.stats().released, 300u);
  // Everything eventually leaves the cache.
  EXPECT_EQ(core.stats().cache_entries, 0u);
}

// Regression: a kFirstCopy singleton that was released on arrival keeps
// occupying its replica's quota slot until erased. The erase path used to
// skip the slot return for released entries, so detection-mode traffic
// whose partner stayed silent leaked one slot per packet — the counter
// drifted up forever and eventually mislabelled honest traffic as flood.
TEST(CompareCore, ReleasedSingletonReturnsQuotaSlotOnEviction) {
  CompareConfig config;
  config.k = 2;
  config.policy = ReleasePolicy::kFirstCopy;
  config.per_replica_quota = 32;
  config.hold_timeout = sim::Duration::milliseconds(5);
  CompareCore core(config);

  // Far more released-but-unconfirmed packets than the quota, with
  // regular sweeps so each batch expires normally.
  std::int64_t ms = 0;
  for (std::uint32_t n = 0; n < 200; ++n) {
    EXPECT_TRUE(core.ingest(0, numbered_packet(n), at_ms(ms)).has_value());
    if ((n + 1) % 10 == 0) {
      ms += 6;
      core.sweep(at_ms(ms));
    }
  }
  core.sweep(at_ms(ms + 6));
  EXPECT_EQ(core.stats().cache_entries, 0u);

  // Every expired entry returned its slot: the incremental counters match
  // a fresh recount (both zero — the cache is empty).
  const CompareAudit audit = core.audit();
  const SlotAudit& entries = audit.of(SlotKind::kEntry);
  for (std::size_t r = 0; r < entries.quota_counts.size(); ++r) {
    EXPECT_EQ(entries.quota_counts[r], entries.quota_held[r])
        << "replica " << r;
  }
  // And the quota never fired: nothing here was a flood.
  EXPECT_EQ(core.stats().evicted_quota, 0u);
}

// Regression: the perturbed-key probe used to stop at the first absent
// key. After an eviction left a hole earlier in a collision chain, later
// copies of a deeper packet started a *second* entry at the hole instead
// of finding the survivor — the vote split and the packet never reached
// quorum. key_mask = 0 forces every packet into one chain.
TEST(CompareCore, CollisionChainSurvivesBaseEviction) {
  CompareConfig config;
  config.k = 3;
  config.hold_timeout = sim::Duration::milliseconds(10);
  config.key_mask = 0;
  CompareCore core(config);

  const auto p1 = numbered_packet(1);
  const auto p2 = numbered_packet(2);
  EXPECT_FALSE(core.ingest(0, p1, at_ms(0)).has_value());
  EXPECT_FALSE(core.ingest(0, p2, at_ms(5)).has_value());  // chained at depth 1
  EXPECT_EQ(core.stats().cache_entries, 2u);

  // p1 times out; its eviction leaves a hole at the chain's base key.
  core.sweep(at_ms(12));
  EXPECT_EQ(core.stats().evicted_timeout, 1u);
  EXPECT_EQ(core.stats().cache_entries, 1u);

  // The confirming copy of p2 must find the survivor past the hole.
  const auto released = core.ingest(1, p2, at_ms(13));
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(*released, p2);
  EXPECT_EQ(core.stats().released, 1u);
  EXPECT_EQ(core.stats().cache_entries, 1u);

  // A third copy is late traffic on the same entry, not a fresh vote.
  EXPECT_FALSE(core.ingest(2, p2, at_ms(14)).has_value());
  EXPECT_EQ(core.stats().released, 1u);
  EXPECT_EQ(core.stats().late_after_release, 1u);
}

// Deep chains stay navigable: with every packet colliding, each
// confirming copy (arriving in reverse order, so at every depth) must
// land on its own entry, and the bookkeeping must survive the churn.
TEST(CompareCore, CollisionChainManyColliders) {
  CompareConfig config;
  config.k = 3;
  config.key_mask = 0;
  CompareCore core(config);

  std::vector<net::Packet> packets;
  for (std::uint32_t n = 0; n < 8; ++n) {
    packets.push_back(numbered_packet(n));
  }
  for (const auto& p : packets) {
    EXPECT_FALSE(core.ingest(0, p, at_ms(0)).has_value());
  }
  EXPECT_EQ(core.stats().cache_entries, 8u);

  for (auto it = packets.rbegin(); it != packets.rend(); ++it) {
    EXPECT_TRUE(core.ingest(1, *it, at_ms(1)).has_value());
  }
  EXPECT_EQ(core.stats().released, 8u);

  const SlotAudit audit = core.audit().of(SlotKind::kEntry);
  EXPECT_TRUE(audit.consistent());
  EXPECT_TRUE(audit.age_ordered);
  EXPECT_EQ(audit.quota_counts, audit.quota_held);
}

// A mid-run capacity squeeze (the fault injector's cache-pressure event)
// must clean down immediately and keep every invariant intact.
TEST(CompareCore, CacheSqueezeCleansToNewCapacity) {
  CompareConfig config;
  config.k = 3;
  config.cache_capacity = 256;
  config.cleanup_low_water = 0.75;
  CompareCore core(config);

  for (std::uint32_t n = 0; n < 100; ++n) {
    core.ingest(0, numbered_packet(n), at_ms(1));
  }
  EXPECT_EQ(core.stats().cache_entries, 100u);

  core.set_cache_capacity(40, at_ms(2));
  EXPECT_LE(core.stats().cache_entries, 40u);
  EXPECT_GE(core.stats().cleanup_passes, 1u);

  const SlotAudit audit = core.audit().of(SlotKind::kEntry);
  EXPECT_EQ(audit.capacity, 40u);
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.quota_counts, audit.quota_held);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompareProperty,
    ::testing::Values(PropertyParam{3, CompareMode::kFullPacket, 1},
                      PropertyParam{3, CompareMode::kFullPacket, 2},
                      PropertyParam{3, CompareMode::kHashed, 3},
                      PropertyParam{5, CompareMode::kFullPacket, 4},
                      PropertyParam{5, CompareMode::kFullPacket, 5},
                      PropertyParam{5, CompareMode::kHashed, 6},
                      PropertyParam{7, CompareMode::kFullPacket, 7},
                      PropertyParam{9, CompareMode::kFullPacket, 8}),
    [](const ::testing::TestParamInfo<PropertyParam>& pinfo) {
      return "k" + std::to_string(pinfo.param.k) + "_mode" +
             std::to_string(static_cast<int>(pinfo.param.mode)) + "_seed" +
             std::to_string(pinfo.param.seed);
    });

// Construction-time fleet-size validation: replica ids must fit the
// 64-bit vote bitmask, and an out-of-range k must fail at the
// configuration boundary, not as silent vote drops later.
TEST(CompareCoreDeathTest, RejectsZeroK) {
  EXPECT_DEATH(CompareCore core{CompareConfig{.k = 0}}, "k out of range");
}

TEST(CompareCoreDeathTest, RejectsOversizedFleet) {
  EXPECT_DEATH(CompareCore core{CompareConfig{.k = 64}}, "k out of range");
}

}  // namespace
}  // namespace netco::core
