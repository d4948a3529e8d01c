// Trace-semantics tests: the packet-lifecycle stream emitted by the
// compare element is a faithful, attributable record of §IV behaviour:
//
//   T1  every ingested packet id ends in exactly one terminal record
//       (release / evict_timeout / evict_capacity / evict_quota);
//   T2  copies arriving after the release trace as `late` and never cause
//       a second `release`;
//   T3  under kFirstCopy, a disagreement traces a `mismatch` against the
//       replica that failed to confirm — the correct one;
//   T4  same-port duplicates trace as `duplicate` (§IV case 2);
//   T5  adversarially modified copies (ModifyBehavior, §IV case 1/§II-3)
//       show up as minority evictions in an end-to-end figure-3 run while
//       the majority traffic still releases.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "adversary/behaviors.h"
#include "device/network.h"
#include "host/ping.h"
#include "net/headers.h"
#include "netco/compare_core.h"
#include "obs/observability.h"
#include "scenario/scenarios.h"
#include "topo/figure3.h"

namespace netco::core {
namespace {

net::Packet numbered_packet(std::uint32_t n, std::uint8_t fill = 0) {
  std::vector<std::byte> data(64, std::byte{fill});
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

bool is_terminal(obs::TraceEvent event) {
  switch (event) {
    case obs::TraceEvent::kCompareRelease:
    case obs::TraceEvent::kCompareEvictTimeout:
    case obs::TraceEvent::kCompareEvictCapacity:
    case obs::TraceEvent::kCompareEvictQuota:
      return true;
    default:
      return false;
  }
}

/// packet id → number of terminal records in the sink.
std::map<std::uint64_t, int> terminal_counts(const obs::RingBufferSink& sink) {
  std::map<std::uint64_t, int> out;
  for (const auto& record : sink.records()) {
    if (record.event == obs::TraceEvent::kCompareIngest) {
      out.try_emplace(record.packet_id, 0);  // every ingested id participates
    } else if (is_terminal(record.event)) {
      ++out[record.packet_id];
    }
  }
  return out;
}

int count_events(const obs::RingBufferSink& sink, obs::TraceEvent event) {
  int n = 0;
  for (const auto& record : sink.records()) {
    if (record.event == event) ++n;
  }
  return n;
}

// T1 — release, timeout, and straggler-finalize paths.
TEST(TraceSemantics, EveryIngestedIdEndsInExactlyOneTerminal) {
  obs::RingBufferSink sink;
  obs::ScopedTraceSink guard(sink);
  CompareCore core(CompareConfig{.k = 3});

  const auto full = numbered_packet(1);      // all three replicas deliver
  const auto majority = numbered_packet(2);  // two deliver, one withholds
  const auto minority = numbered_packet(3);  // fabricated singleton
  core.ingest(0, full, at_ms(0));
  core.ingest(1, full, at_ms(0));
  core.ingest(2, full, at_ms(1));  // late copy of a released packet
  core.ingest(0, majority, at_ms(1));
  core.ingest(2, majority, at_ms(2));
  core.ingest(1, minority, at_ms(2));
  core.sweep(at_ms(100));  // everything past the hold timeout

  const auto counts = terminal_counts(sink);
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [id, terminals] : counts) {
    EXPECT_EQ(terminals, 1) << "packet " << id;
  }
  EXPECT_EQ(count_events(sink, obs::TraceEvent::kCompareRelease), 2);
  EXPECT_EQ(count_events(sink, obs::TraceEvent::kCompareEvictTimeout), 1);
}

// T1 — capacity-cleanup and quota evictions are terminals too.
TEST(TraceSemantics, CapacityAndQuotaEvictionsAreTerminals) {
  obs::RingBufferSink sink;
  obs::ScopedTraceSink guard(sink);
  CompareConfig config{.k = 3};
  config.hold_timeout = sim::Duration::seconds(10);  // timeouts out of play
  config.cache_capacity = 8;
  config.cleanup_low_water = 0.5;
  config.per_replica_quota = 6;
  CompareCore core(config);

  // 9 distinct singletons alternating replicas: the 9th ingest overflows
  // the capacity and triggers a cleanup pass.
  for (std::uint32_t n = 0; n < 9; ++n) {
    core.ingest(static_cast<int>(n % 3), numbered_packet(100 + n), at_ms(1));
  }
  EXPECT_GT(core.stats().evicted_capacity, 0u);
  EXPECT_EQ(count_events(sink, obs::TraceEvent::kCompareEvictCapacity),
            static_cast<int>(core.stats().evicted_capacity));

  // Quota: a single replica flooding unique packets evicts its own oldest
  // singleton once past per_replica_quota.
  obs::RingBufferSink quota_sink;
  obs::ScopedTraceSink quota_guard(quota_sink);
  CompareConfig isolated{.k = 3};
  isolated.hold_timeout = sim::Duration::seconds(10);
  isolated.per_replica_quota = 2;
  CompareCore flooded(isolated);
  for (std::uint32_t n = 0; n < 3; ++n) {
    flooded.ingest(0, numbered_packet(200 + n), at_ms(1));
  }
  EXPECT_EQ(flooded.stats().evicted_quota, 1u);
  const auto records = quota_sink.records();
  int quota_terminals = 0;
  for (const auto& record : records) {
    if (record.event == obs::TraceEvent::kCompareEvictQuota) {
      ++quota_terminals;
      EXPECT_EQ(record.replica, 0);  // attributed to the flooding replica
    }
  }
  EXPECT_EQ(quota_terminals, 1);
}

// T2 — late copies trace as `late`, never as a second `release`.
TEST(TraceSemantics, LateAfterReleaseNeverDoubleReleases) {
  obs::RingBufferSink sink;
  obs::ScopedTraceSink guard(sink);
  CompareCore core(CompareConfig{.k = 3});

  const auto p = numbered_packet(7);
  core.ingest(0, p, at_ms(0));
  ASSERT_TRUE(core.ingest(1, p, at_ms(0)).has_value());
  EXPECT_FALSE(core.ingest(2, p, at_ms(1)).has_value());

  EXPECT_EQ(count_events(sink, obs::TraceEvent::kCompareRelease), 1);
  EXPECT_EQ(count_events(sink, obs::TraceEvent::kCompareLate), 1);
  for (const auto& record : sink.records()) {
    if (record.event == obs::TraceEvent::kCompareLate) {
      EXPECT_EQ(record.replica, 2);  // the straggler, by name
      EXPECT_EQ(record.packet_id, p.content_hash());
    }
  }
}

// T3 — kFirstCopy: the mismatch record names the replica that disagreed.
TEST(TraceSemantics, FirstCopyMismatchAttributesTheDisagreeingReplica) {
  obs::RingBufferSink sink;
  obs::ScopedTraceSink guard(sink);
  CompareConfig config{.k = 2};
  config.policy = ReleasePolicy::kFirstCopy;
  CompareCore core(config);

  const auto honest = numbered_packet(1, /*fill=*/0x00);
  auto tampered = honest;  // replica 1 modifies the payload in flight
  tampered.bytes_mut().back() = std::byte{0xEE};

  ASSERT_TRUE(core.ingest(0, honest, at_ms(0)).has_value());
  ASSERT_TRUE(core.ingest(1, tampered, at_ms(0)).has_value());
  core.sweep(at_ms(100));

  EXPECT_EQ(core.stats().mismatch_detected, 2u);
  std::map<std::uint64_t, std::int32_t> blamed;
  for (const auto& record : sink.records()) {
    if (record.event == obs::TraceEvent::kCompareMismatch) {
      blamed[record.packet_id] = record.replica;
    }
  }
  ASSERT_EQ(blamed.size(), 2u);
  // The honest packet was confirmed by replica 0 only → replica 1 is the
  // suspect; the tampered copy implicates replica 0 symmetrically (an
  // administrator resolves the pair — detection, not prevention).
  EXPECT_EQ(blamed.at(honest.content_hash()), 1);
  EXPECT_EQ(blamed.at(tampered.content_hash()), 0);
}

// T4 — §IV case 2: same-port duplicates are traced and attributed.
TEST(TraceSemantics, SamePortDuplicateTraced) {
  obs::RingBufferSink sink;
  obs::ScopedTraceSink guard(sink);
  CompareCore core(CompareConfig{.k = 3});

  const auto p = numbered_packet(9);
  core.ingest(1, p, at_ms(0));
  core.ingest(1, p, at_ms(0));
  core.ingest(1, p, at_ms(1));

  EXPECT_EQ(count_events(sink, obs::TraceEvent::kCompareDuplicate), 2);
  for (const auto& record : sink.records()) {
    if (record.event == obs::TraceEvent::kCompareDuplicate) {
      EXPECT_EQ(record.replica, 1);
    }
  }
}

// T5 — §IV cases via an adversary driver: a modifying replica's copies die
// as minority evictions while the honest majority still releases.
TEST(TraceSemantics, ModifyingReplicaShowsAsMinorityEvictionsEndToEnd) {
  obs::RingBufferSink sink(1 << 20);
  obs::ScopedTraceSink guard(sink);

  topo::Figure3Topology topo(
      scenario::make_options(scenario::ScenarioKind::kCentral3, 11));
  adversary::ModifyBehavior corrupt(adversary::match_all(),
                                    adversary::ModifyBehavior::corrupt_payload());
  topo.combiner().replicas[0]->set_interceptor(&corrupt);

  host::PingConfig config;
  config.dst_mac = topo.h2().mac();
  config.dst_ip = topo.h2().ip();
  config.count = 10;
  config.interval = sim::Duration::milliseconds(2);
  config.timeout = sim::Duration::milliseconds(200);
  host::IcmpPinger pinger(topo.h1(), config);
  pinger.start();
  const auto deadline = topo.simulator().now() + sim::Duration::seconds(3);
  while (!pinger.finished() && topo.simulator().now() < deadline) {
    topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  // Let the compare sweep retire the corrupted singletons.
  topo.simulator().run_for(sim::Duration::milliseconds(100));

  EXPECT_EQ(pinger.report().received, 10);  // 2-of-3 quorum still held
  EXPECT_GT(corrupt.attack_stats().packets_attacked, 0u);
  // Every corrupted copy is a singleton nobody confirms → §IV case 1.
  EXPECT_GT(count_events(sink, obs::TraceEvent::kCompareEvictTimeout), 0);
  EXPECT_GT(count_events(sink, obs::TraceEvent::kCompareRelease), 0);
}

}  // namespace
}  // namespace netco::core
