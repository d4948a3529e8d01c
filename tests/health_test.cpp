// Unit tests for the replica-health subsystem (src/health) and its hooks
// in CompareCore:
//
//   H1  the verdict stream attributes matched/missed/divergent evidence to
//       the right replica, and stays silent with no sink installed;
//   H2  the quorum adapts to the live set: majority over live replicas,
//       first-copy detection mode at 2, probe copies never vote;
//   H3  a readmitted replica is not blamed for entries fanned out while it
//       was masked (live_since gating);
//   H4  the case-3 unavailability alarm fires exactly at the consecutive-
//       miss threshold, re-arms when the replica reappears, and cannot be
//       triggered by a quarantined replica;
//   H5  HealthMonitor scoring: EWMA with hysteresis, saturating signals,
//       probation readmission, max-quarantines ban, min-live floor.
#include <gtest/gtest.h>

#include <vector>

#include "health/monitor.h"
#include "net/headers.h"
#include "netco/compare_core.h"

namespace netco {
namespace {

net::Packet numbered_packet(std::uint32_t n, std::size_t payload = 64) {
  std::vector<std::byte> data(payload, std::byte{0});
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

/// Collects every verdict the core emits.
struct VerdictLog final : core::VerdictSink {
  std::vector<core::ReplicaVerdict> verdicts;
  void on_verdict(const core::ReplicaVerdict& v) override {
    verdicts.push_back(v);
  }
  [[nodiscard]] std::size_t count(core::VerdictKind kind, int replica) const {
    std::size_t n = 0;
    for (const auto& v : verdicts) {
      if (v.kind == kind && v.replica == replica) ++n;
    }
    return n;
  }
};

// --- H1: verdict stream ------------------------------------------------------

TEST(VerdictStream, MatchedAndMissedAttributedOnFinalize) {
  core::CompareCore compare(core::CompareConfig{.k = 3});
  VerdictLog log;
  compare.set_verdict_sink(&log);

  const auto p = numbered_packet(1);
  compare.ingest(0, p, at_ms(0));
  compare.ingest(1, p, at_ms(0));  // released here; replica 2 never shows
  compare.sweep(at_ms(1000));      // retention expires -> finalize

  EXPECT_EQ(log.count(core::VerdictKind::kMatched, 0), 1u);
  EXPECT_EQ(log.count(core::VerdictKind::kMatched, 1), 1u);
  EXPECT_EQ(log.count(core::VerdictKind::kMissed, 2), 1u);
  EXPECT_EQ(log.count(core::VerdictKind::kDivergent, 2), 0u);
}

TEST(VerdictStream, DivergentForDeadSingleton) {
  core::CompareCore compare(core::CompareConfig{.k = 3});
  VerdictLog log;
  compare.set_verdict_sink(&log);

  // Fabricated garbage only replica 1 ever delivers: times out as a
  // singleton -> attributable divergence.
  compare.ingest(1, numbered_packet(77), at_ms(0));
  compare.sweep(at_ms(1000));

  EXPECT_EQ(log.count(core::VerdictKind::kDivergent, 1), 1u);
  // A minority entry is not an agreed packet: no misses for the others.
  EXPECT_EQ(log.count(core::VerdictKind::kMissed, 0), 0u);
  EXPECT_EQ(log.count(core::VerdictKind::kMissed, 2), 0u);
}

TEST(VerdictStream, InactivityEmitsSaturatingVerdict) {
  core::CompareConfig config{.k = 3};
  config.inactivity_threshold = 5;
  core::CompareCore compare(config);
  VerdictLog log;
  compare.set_verdict_sink(&log);

  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto p = numbered_packet(i);
    compare.ingest(0, p, at_ms(i));
    compare.ingest(1, p, at_ms(i));
  }
  compare.sweep(at_ms(1000));
  EXPECT_EQ(log.count(core::VerdictKind::kInactive, 2), 1u);
  EXPECT_EQ(log.count(core::VerdictKind::kMissed, 2), 5u);
}

// --- H2: adaptive quorum -----------------------------------------------------

TEST(AdaptiveQuorum, MajorityShrinksWithLiveSet) {
  core::CompareCore compare(core::CompareConfig{.k = 5});
  EXPECT_EQ(compare.live_quorum(), 3);

  compare.set_replica_live(4, false, at_ms(0));
  compare.set_replica_live(3, false, at_ms(0));
  EXPECT_EQ(compare.live_count(), 3);
  EXPECT_EQ(compare.live_quorum(), 2);
  EXPECT_FALSE(compare.degraded_first_copy());

  // Two live copies now complete the quorum.
  const auto p = numbered_packet(1);
  EXPECT_FALSE(compare.ingest(0, p, at_ms(1)).has_value());
  EXPECT_TRUE(compare.ingest(1, p, at_ms(1)).has_value());
}

TEST(AdaptiveQuorum, ProbeCopiesNeverVoteOrRelease) {
  core::CompareCore compare(core::CompareConfig{.k = 5});
  compare.set_replica_live(4, false, at_ms(0));
  compare.set_replica_live(3, false, at_ms(0));  // live quorum is now 2

  const auto p = numbered_packet(2);
  // Two probation probes plus one live copy: no release — probes are
  // compared and judged but carry no vote.
  EXPECT_FALSE(compare.ingest(4, p, at_ms(1)).has_value());
  EXPECT_FALSE(compare.ingest(3, p, at_ms(1)).has_value());
  EXPECT_FALSE(compare.ingest(0, p, at_ms(1)).has_value());
  // The second live copy completes the quorum.
  EXPECT_TRUE(compare.ingest(1, p, at_ms(1)).has_value());
}

TEST(AdaptiveQuorum, TwoLiveFallsBackToFirstCopyDetection) {
  core::CompareCore compare(core::CompareConfig{.k = 5});
  for (int r : {2, 3, 4}) compare.set_replica_live(r, false, at_ms(0));
  EXPECT_EQ(compare.live_count(), 2);
  EXPECT_TRUE(compare.degraded_first_copy());

  // Detection mode: the first *live* copy releases immediately...
  EXPECT_TRUE(compare.ingest(0, numbered_packet(3), at_ms(1)).has_value());
  // ...but a probe copy must not (a byzantine quarantined replica would
  // otherwise forward fabricated traffic through the degraded mode).
  EXPECT_FALSE(compare.ingest(2, numbered_packet(4), at_ms(1)).has_value());

  // Readmission restores the majority rule.
  compare.set_replica_live(2, false, at_ms(2));  // no-op, already out
  for (int r : {2, 3, 4}) compare.set_replica_live(r, true, at_ms(2));
  EXPECT_EQ(compare.live_quorum(), 3);
  EXPECT_FALSE(compare.degraded_first_copy());
}

// --- H3: no blame across readmission -----------------------------------------

TEST(AdaptiveQuorum, ReadmittedReplicaNotBlamedForOldEntries) {
  core::CompareCore compare(core::CompareConfig{.k = 3});
  VerdictLog log;
  compare.set_verdict_sink(&log);

  compare.set_replica_live(2, false, at_ms(0));
  // Entry fanned out while replica 2 was masked: it never got a copy.
  const auto old_entry = numbered_packet(1);
  compare.ingest(0, old_entry, at_ms(1));
  compare.ingest(1, old_entry, at_ms(1));  // releases (live quorum 2)

  compare.set_replica_live(2, true, at_ms(5));
  compare.sweep(at_ms(1000));  // finalizes the pre-readmission entry
  EXPECT_EQ(log.count(core::VerdictKind::kMissed, 2), 0u);

  // Entries born after the readmission do blame it again.
  const auto new_entry = numbered_packet(2);
  compare.ingest(0, new_entry, at_ms(1001));
  compare.ingest(1, new_entry, at_ms(1001));
  compare.sweep(at_ms(2000));
  EXPECT_EQ(log.count(core::VerdictKind::kMissed, 2), 1u);
}

// --- H4: case-3 alarm boundary (satellite) -----------------------------------

class InactivityBoundary : public ::testing::Test {
 protected:
  InactivityBoundary() {
    core::CompareConfig config{.k = 3};
    config.inactivity_threshold = 5;
    compare_.emplace(config);
    compare_->set_verdict_sink(&log_);
  }

  /// Releases one packet via replicas {0,1} (replica 2 absent unless
  /// `with_two`), then finalizes it by sweeping past the retention.
  void agreed_packet(bool with_two) {
    const auto p = numbered_packet(next_++);
    const auto t = at_ms(clock_ms_);
    compare_->ingest(0, p, t);
    compare_->ingest(1, p, t);
    if (with_two) compare_->ingest(2, p, t);
    clock_ms_ += 100;  // > hold_timeout: the sweep finalizes this entry
    compare_->sweep(at_ms(clock_ms_));
  }

  [[nodiscard]] std::size_t alarms() {
    const auto advice = compare_->take_advice();
    alarms_ += advice.inactive_replicas.size();
    return alarms_;
  }

  std::optional<core::CompareCore> compare_;
  VerdictLog log_;
  std::uint32_t next_ = 1;
  std::int64_t clock_ms_ = 0;
  std::size_t alarms_ = 0;
};

TEST_F(InactivityBoundary, FiresExactlyAtThreshold) {
  for (int i = 0; i < 4; ++i) agreed_packet(false);
  EXPECT_EQ(alarms(), 0u);  // threshold - 1: not yet
  agreed_packet(false);
  EXPECT_EQ(alarms(), 1u);  // exactly at threshold
  agreed_packet(false);
  EXPECT_EQ(alarms(), 1u);  // and only once per dead streak
  EXPECT_EQ(log_.count(core::VerdictKind::kInactive, 2), 1u);
}

TEST_F(InactivityBoundary, ReappearanceClearsAndRearms) {
  for (int i = 0; i < 5; ++i) agreed_packet(false);
  EXPECT_EQ(alarms(), 1u);

  agreed_packet(true);  // replica 2 reappears: streak and latch reset
  for (int i = 0; i < 4; ++i) agreed_packet(false);
  EXPECT_EQ(alarms(), 1u);  // fresh streak below threshold
  agreed_packet(false);
  EXPECT_EQ(alarms(), 2u);  // second full streak -> alarm re-fires
}

TEST_F(InactivityBoundary, QuarantinedReplicaCannotTrigger) {
  for (int i = 0; i < 3; ++i) agreed_packet(false);  // part of a streak
  compare_->set_replica_live(2, false, at_ms(clock_ms_));
  // Masked out: absences are expected (sampled trickle), never misses.
  for (int i = 0; i < 20; ++i) agreed_packet(false);
  EXPECT_EQ(alarms(), 0u);
  EXPECT_EQ(log_.count(core::VerdictKind::kMissed, 2), 3u);

  // Readmitted with a clean slate: the pre-quarantine streak is gone.
  compare_->set_replica_live(2, true, at_ms(clock_ms_));
  for (int i = 0; i < 4; ++i) agreed_packet(false);
  EXPECT_EQ(alarms(), 0u);
  agreed_packet(false);
  EXPECT_EQ(alarms(), 1u);
}

// --- H5: HealthMonitor scoring -----------------------------------------------

health::HealthConfig monitor_config() {
  health::HealthConfig config;
  config.enabled = true;
  config.min_verdicts = 4;
  config.readmit_probe_matches = 3;
  return config;
}

core::ReplicaVerdict verdict_of(core::VerdictKind kind, int replica,
                                bool live = true) {
  return core::ReplicaVerdict{
      .kind = kind, .replica = replica, .live = live, .at = at_ms(1)};
}

TEST(HealthMonitor, SustainedDivergenceQuarantines) {
  health::HealthMonitor monitor(monitor_config(), 5);
  for (int i = 0; i < 20; ++i) {
    monitor.on_verdict(verdict_of(core::VerdictKind::kDivergent, 1));
    if (monitor.replica(1).state == health::ReplicaState::kQuarantined) break;
  }
  const auto actions = monitor.take_actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, health::HealthAction::Kind::kQuarantine);
  EXPECT_EQ(actions[0].replica, 1);
  EXPECT_GE(actions[0].score, health::HealthConfig::kQuarantineThreshold);
}

TEST(HealthMonitor, ColdStartGuardHoldsOffEarlyVerdicts) {
  health::HealthMonitor monitor(monitor_config(), 5);
  // Fewer than min_verdicts, even all-divergent: no action yet.
  for (int i = 0; i < 3; ++i) {
    monitor.on_verdict(verdict_of(core::VerdictKind::kDivergent, 1));
  }
  EXPECT_TRUE(monitor.take_actions().empty());
  EXPECT_EQ(monitor.replica(1).state, health::ReplicaState::kLive);
}

TEST(HealthMonitor, SaturatingSignalQuarantinesImmediately) {
  health::HealthMonitor monitor(monitor_config(), 5);
  // The compare's own windowed monitor produced this: no cold-start wait.
  monitor.on_verdict(verdict_of(core::VerdictKind::kFloodFlagged, 2));
  const auto actions = monitor.take_actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, health::HealthAction::Kind::kQuarantine);
  EXPECT_DOUBLE_EQ(monitor.replica(2).score, 1.0);
}

TEST(HealthMonitor, ProbationReadmitsOnMatchesAndLowScore) {
  health::HealthMonitor monitor(monitor_config(), 5);
  monitor.on_verdict(verdict_of(core::VerdictKind::kInactive, 3));
  ASSERT_EQ(monitor.replica(3).state, health::ReplicaState::kQuarantined);
  (void)monitor.take_actions();

  // Matched probes decay the score; a divergent probe restarts the count.
  monitor.on_verdict(verdict_of(core::VerdictKind::kMatched, 3, false));
  monitor.on_verdict(verdict_of(core::VerdictKind::kDivergent, 3, false));
  EXPECT_EQ(monitor.replica(3).probe_matches, 0u);

  int probes = 0;
  while (monitor.replica(3).state == health::ReplicaState::kQuarantined &&
         probes < 100) {
    monitor.on_verdict(verdict_of(core::VerdictKind::kMatched, 3, false));
    ++probes;
  }
  const auto actions = monitor.take_actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, health::HealthAction::Kind::kReadmit);
  EXPECT_LE(actions[0].score, health::HealthConfig::kReadmitThreshold);
  EXPECT_GE(probes, 3);  // at least readmit_probe_matches
}

TEST(HealthMonitor, BanAfterMaxQuarantines) {
  health::HealthConfig config = monitor_config();
  config.max_quarantines = 2;
  health::HealthMonitor monitor(config, 5);

  const auto quarantine = [&] {
    monitor.on_verdict(verdict_of(core::VerdictKind::kFloodFlagged, 0));
  };
  const auto readmit = [&] {
    while (monitor.replica(0).state == health::ReplicaState::kQuarantined) {
      monitor.on_verdict(verdict_of(core::VerdictKind::kMatched, 0, false));
    }
  };
  quarantine();
  readmit();
  quarantine();
  readmit();
  (void)monitor.take_actions();
  quarantine();  // third strike: ban, not quarantine
  const auto actions = monitor.take_actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, health::HealthAction::Kind::kBan);
  EXPECT_EQ(monitor.replica(0).state, health::ReplicaState::kBanned);

  // Banned replicas are out of scope for further verdicts.
  monitor.on_verdict(verdict_of(core::VerdictKind::kMatched, 0, false));
  EXPECT_TRUE(monitor.take_actions().empty());
  EXPECT_EQ(monitor.replica(0).state, health::ReplicaState::kBanned);
}

TEST(HealthMonitor, MinLiveFloorBlocksLastQuarantines) {
  health::HealthConfig config = monitor_config();
  config.min_live = 2;
  health::HealthMonitor monitor(config, 3);

  monitor.on_verdict(verdict_of(core::VerdictKind::kFloodFlagged, 0));
  ASSERT_EQ(monitor.replica(0).state, health::ReplicaState::kQuarantined);
  // A second bad replica would leave only min_live: the floor holds it
  // live no matter how bad the score gets.
  for (int i = 0; i < 10; ++i) {
    monitor.on_verdict(verdict_of(core::VerdictKind::kFloodFlagged, 1));
  }
  EXPECT_EQ(monitor.replica(1).state, health::ReplicaState::kLive);
  EXPECT_EQ(monitor.live_replicas(), 2);
}

}  // namespace
}  // namespace netco
