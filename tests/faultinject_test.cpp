// Tests for the fault-injection subsystem: plan generation determinism,
// injector execution against a real combiner topology, and — crucially —
// that the invariant checkers actually trip on violating inputs (a
// checker that can't fail is not a checker).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "faultinject/fault_plan.h"
#include "faultinject/injector.h"
#include "faultinject/invariants.h"
#include "net/headers.h"
#include "netco/compare_core.h"
#include "scenario/scenarios.h"

namespace netco::faultinject {
namespace {

obs::TraceRecord record(obs::TraceEvent event, std::uint64_t pkt,
                        std::int32_t replica,
                        const std::string& component = "compare/e") {
  obs::TraceRecord r;
  r.at_ns = 1000;
  r.event = event;
  r.packet_id = pkt;
  r.replica = replica;
  r.bytes = 64;
  r.component = obs::ComponentName::intern(component);
  return r;
}

// --- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, SameSeedSamePlan) {
  FaultPlanParams params;
  params.k = 3;
  const FaultPlan a = FaultPlan::random(42, params);
  const FaultPlan b = FaultPlan::random(42, params);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.to_json(), b.to_json());

  const FaultPlan c = FaultPlan::random(43, params);
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST(FaultPlan, EventsSortedAndPaired) {
  FaultPlanParams params;
  params.k = 5;
  params.replica_crashes = 2;
  params.behavior_swaps = 2;
  const FaultPlan plan = FaultPlan::random(7, params);
  ASSERT_FALSE(plan.empty());

  std::int64_t prev = 0;
  int crashes = 0, restarts = 0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_GE(e.at_ns, prev);
    prev = e.at_ns;
    EXPECT_LT(e.at_ns, params.horizon.ns());
    EXPECT_GE(e.at_ns, params.start.ns());
    if (e.kind == FaultKind::kReplicaCrash) ++crashes;
    if (e.kind == FaultKind::kReplicaRestart) ++restarts;
  }
  // Every crash recovers inside the horizon.
  EXPECT_EQ(crashes, restarts);
  EXPECT_EQ(crashes, params.replica_crashes);
}

TEST(FaultPlan, EmptyHorizonYieldsEmptyPlan) {
  FaultPlanParams params;
  params.horizon = params.start;  // no room for any event
  EXPECT_TRUE(FaultPlan::random(1, params).empty());
}

TEST(FaultPlan, JsonRoundTripsEveryKindAndBehavior) {
  // One event of every kind, with every field in play, survives
  // to_json → from_json → to_json byte-identically. This is the bench
  // artifact's contract: a serialized plan can be reloaded and replayed.
  FaultPlan plan;
  std::int64_t t = 1'000'000;
  const auto at = [&t] { return t += 1'000'000; };
  plan.events.push_back({at(), FaultKind::kLinkDown, 0, 1, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kLinkUp, 0, 1, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kLinkLoss, 1, 2, 0.25, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kLinkLatency, 1, 0, 0, 150'000, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kReplicaCrash, -1, 2, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kReplicaRestart, -1, 2, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kBehaviorSwap, 0, 1, 0, 0, 0,
                         SwapBehavior::kDrop, 0});
  plan.events.push_back({at(), FaultKind::kBehaviorSwap, 0, 1, 0, 0, 0,
                         SwapBehavior::kCorrupt, 0});
  plan.events.push_back({at(), FaultKind::kBehaviorSwap, 0, 1, 0, 0, 0,
                         SwapBehavior::kReroute, 0});
  plan.events.push_back({at(), FaultKind::kCacheSqueeze, -1, 0, 0, 0, 48,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kCacheRestore, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kCompareCrash, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 40'000'000});
  plan.events.push_back({at(), FaultKind::kCompareHang, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 10'000'000});
  plan.events.push_back({at(), FaultKind::kHubCrash, 1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 5'000'000});
  plan.events.push_back({at(), FaultKind::kHeartbeatLoss, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 25'000'000});
  plan.events.push_back({at(), FaultKind::kRoutePoison, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kMetricInflate, -1, 1, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kBlackholeAd, -1, 2, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.events.push_back({at(), FaultKind::kFabricLinkCut, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0, 10, 2});
  plan.events.push_back({at(), FaultKind::kFabricLinkRestore, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0, 10, 2});
  plan.events.push_back({at(), FaultKind::kSwitchKill, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0, 16, -1});
  plan.events.push_back({at(), FaultKind::kSwitchRestart, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0, 16, -1});
  plan.normalize();

  const std::string json = plan.to_json();
  const auto parsed = FaultPlan::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& a = plan.events[i];
    const FaultEvent& b = parsed->events[i];
    EXPECT_EQ(a.at_ns, b.at_ns) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.edge, b.edge) << "event " << i;
    EXPECT_EQ(a.replica, b.replica) << "event " << i;
    EXPECT_DOUBLE_EQ(a.loss_rate, b.loss_rate) << "event " << i;
    EXPECT_EQ(a.extra_latency_ns, b.extra_latency_ns) << "event " << i;
    EXPECT_EQ(a.cache_capacity, b.cache_capacity) << "event " << i;
    EXPECT_EQ(a.behavior, b.behavior) << "event " << i;
    EXPECT_EQ(a.duration_ns, b.duration_ns) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.peer, b.peer) << "event " << i;
  }
  EXPECT_EQ(parsed->to_json(), json);
}

TEST(FaultPlan, LegacyLinesWithoutNodePeerStillParse) {
  // Plans serialized before the fabric vocabulary existed carry no
  // node/peer members; they must load with the -1 defaults so archived
  // bench artifacts stay replayable.
  const auto parsed = FaultPlan::from_json(
      "{\"t\":1,\"kind\":\"link.down\",\"edge\":0,\"replica\":1,"
      "\"loss\":0,\"latency_ns\":0,\"capacity\":0,\"behavior\":\"honest\","
      "\"duration_ns\":0}");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->events[0].node, -1);
  EXPECT_EQ(parsed->events[0].peer, -1);
}

TEST(FaultPlan, FromJsonRejectsUnknownFabricKind) {
  // The rejection contract extends to the fabric vocabulary: a typo'd
  // kind fails the whole parse instead of degrading to an empty plan.
  EXPECT_FALSE(
      FaultPlan::from_json(
          "{\"t\":1,\"kind\":\"switch.evaporate\",\"edge\":-1,\"replica\":0,"
          "\"loss\":0,\"latency_ns\":0,\"capacity\":0,\"behavior\":\"honest\","
          "\"duration_ns\":0,\"node\":3,\"peer\":-1}")
          .has_value());
  // The correctly-spelled fabric kinds parse with their addressing.
  for (const char* kind :
       {"link.cut", "link.restore", "switch.kill", "switch.restart"}) {
    const std::string line =
        std::string("{\"t\":1,\"kind\":\"") + kind +
        "\",\"edge\":-1,\"replica\":0,\"loss\":0,\"latency_ns\":0,"
        "\"capacity\":0,\"behavior\":\"honest\",\"duration_ns\":0,"
        "\"node\":7,\"peer\":12}";
    const auto parsed = FaultPlan::from_json(line);
    ASSERT_TRUE(parsed.has_value()) << kind;
    ASSERT_EQ(parsed->events.size(), 1u) << kind;
    EXPECT_EQ(parsed->events[0].node, 7) << kind;
    EXPECT_EQ(parsed->events[0].peer, 12) << kind;
  }
}

TEST(FaultPlan, JsonRoundTripsRandomPlanWithTrustedFaults) {
  FaultPlanParams params;
  params.k = 5;
  params.compare_crashes = 1;
  params.compare_hangs = 1;
  params.hub_crashes = 2;
  params.heartbeat_losses = 1;
  const FaultPlan plan = FaultPlan::random(99, params);
  ASSERT_FALSE(plan.empty());

  int trusted = 0;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kCompareCrash ||
        e.kind == FaultKind::kCompareHang ||
        e.kind == FaultKind::kHubCrash ||
        e.kind == FaultKind::kHeartbeatLoss) {
      ++trusted;
      EXPECT_GT(e.duration_ns, 0) << "trusted faults always recover";
      EXPECT_LT(e.at_ns + e.duration_ns, params.horizon.ns());
    }
  }
  EXPECT_EQ(trusted, 5);

  const auto parsed = FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), plan.to_json());
}

TEST(FaultPlan, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::from_json("{\"t\":banana}").has_value());
  EXPECT_FALSE(
      FaultPlan::from_json(
          "{\"t\":1,\"kind\":\"no.such.kind\",\"edge\":0,\"replica\":0,"
          "\"loss\":0,\"latency_ns\":0,\"capacity\":0,\"behavior\":\"honest\","
          "\"duration_ns\":0}")
          .has_value());
}

TEST(FaultPlan, FromJsonRejectsUnknownRoutingKind) {
  // A typo'd routing kind ("routing.posion") must fail the whole parse,
  // not degrade into an empty plan — a silently-empty plan would make an
  // attack run look benign.
  EXPECT_FALSE(
      FaultPlan::from_json(
          "{\"t\":1,\"kind\":\"routing.posion\",\"edge\":-1,\"replica\":0,"
          "\"loss\":0,\"latency_ns\":0,\"capacity\":0,\"behavior\":\"honest\","
          "\"duration_ns\":0}")
          .has_value());
  // The correctly-spelled kinds parse.
  for (const char* kind :
       {"routing.poison", "routing.inflate", "routing.blackhole"}) {
    const std::string line =
        std::string("{\"t\":1,\"kind\":\"") + kind +
        "\",\"edge\":-1,\"replica\":0,\"loss\":0,\"latency_ns\":0,"
        "\"capacity\":0,\"behavior\":\"honest\",\"duration_ns\":0}";
    const auto parsed = FaultPlan::from_json(line);
    ASSERT_TRUE(parsed.has_value()) << kind;
    ASSERT_EQ(parsed->events.size(), 1u) << kind;
  }
}

// --- FaultInjector --------------------------------------------------------

TEST(FaultInjector, AppliesLinkAndCacheEventsOnRealTopology) {
  topo::Figure3Topology topo(
      scenario::make_options(scenario::ScenarioKind::kCentral3, 1));
  auto& combiner = topo.combiner();

  FaultPlan plan;
  plan.events.push_back({sim::Duration::milliseconds(1).ns(),
                         FaultKind::kLinkDown, 0, 1, 0, 0, 0,
                         SwapBehavior::kHonest});
  plan.events.push_back({sim::Duration::milliseconds(2).ns(),
                         FaultKind::kCacheSqueeze, -1, 0, 0, 0, 32,
                         SwapBehavior::kHonest});
  plan.events.push_back({sim::Duration::milliseconds(3).ns(),
                         FaultKind::kLinkUp, 0, 1, 0, 0, 0,
                         SwapBehavior::kHonest});
  plan.events.push_back({sim::Duration::milliseconds(4).ns(),
                         FaultKind::kCacheRestore, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest});
  plan.normalize();

  FaultInjector injector(topo, plan);
  injector.arm();

  const std::size_t original =
      combiner.compare->core_for(combiner.edges[0]->name())
          ->config()
          .cache_capacity;

  topo.simulator().run_for(sim::Duration::microseconds(1500));
  EXPECT_TRUE(combiner.edge_replica_link[0][1]->forward().is_down());
  EXPECT_EQ(injector.applied(), 1u);

  topo.simulator().run_for(sim::Duration::milliseconds(1));
  EXPECT_EQ(combiner.compare->core_for(combiner.edges[0]->name())
                ->config()
                .cache_capacity,
            32u);

  topo.simulator().run_for(sim::Duration::milliseconds(2));
  EXPECT_FALSE(combiner.edge_replica_link[0][1]->forward().is_down());
  EXPECT_EQ(combiner.compare->core_for(combiner.edges[0]->name())
                ->config()
                .cache_capacity,
            original);
  EXPECT_EQ(injector.applied(), plan.events.size());
}

TEST(FaultInjector, SkippedEventsAreNotCounted) {
  // No resilience manager and no fat-tree: the injector skips both events
  // with a log line, so neither may count as applied.
  topo::Figure3Topology topo(
      scenario::make_options(scenario::ScenarioKind::kCentral3, 1));
  FaultPlan plan;
  plan.events.push_back({sim::Duration::milliseconds(1).ns(),
                         FaultKind::kFabricLinkCut, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0, 10, 2});
  plan.events.push_back({sim::Duration::milliseconds(2).ns(),
                         FaultKind::kCompareCrash, -1, 0, 0, 0, 0,
                         SwapBehavior::kHonest, 0});
  plan.normalize();

  FaultInjector injector(topo, plan);
  injector.arm();
  topo.simulator().run_for(sim::Duration::milliseconds(5));
  EXPECT_EQ(injector.applied(), 0u);
}

// --- check_audit ----------------------------------------------------------

/// A hand-built audit of a store holding `entries` consistent entry slots
/// under an entry capacity of 8.
core::CompareAudit entry_audit(std::size_t entries) {
  core::CompareAudit audit;
  core::SlotAudit& kind = audit.of(core::SlotKind::kEntry);
  kind.size = kind.age_entries = kind.index_entries = entries;
  kind.capacity = 8;
  audit.arena = entries;
  return audit;
}

TEST(CheckAudit, PassesOnConsistentSnapshot) {
  core::CompareAudit audit = entry_audit(3);
  audit.of(core::SlotKind::kEntry).quota_counts = {1, 2};
  audit.of(core::SlotKind::kEntry).quota_held = {1, 2};
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.checks, 0u);
}

TEST(CheckAudit, TripsOnQuotaDrift) {
  core::CompareAudit audit = entry_audit(0);
  audit.of(core::SlotKind::kEntry).quota_counts = {5, 0};  // counter says 5...
  audit.of(core::SlotKind::kEntry).quota_held = {0, 0};  // ...none held: a leak
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.details.empty());
  EXPECT_NE(report.details.front().find("quota"), std::string::npos);
}

TEST(CheckAudit, TripsOnAgeCacheDisagreement) {
  core::CompareAudit audit = entry_audit(3);
  audit.of(core::SlotKind::kEntry).age_entries = 2;  // a slot fell off
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_FALSE(report.ok());
}

TEST(CheckAudit, TripsOnCapacityOverflow) {
  core::CompareAudit audit = entry_audit(9);
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_FALSE(report.ok());
}

TEST(CheckAudit, TripsOnUnorderedAgeList) {
  core::CompareAudit audit = entry_audit(0);
  audit.of(core::SlotKind::kEntry).age_ordered = false;
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_FALSE(report.ok());
}

// --- QuorumTraceChecker ---------------------------------------------------

TEST(QuorumTraceChecker, AcceptsQuorumBackedRelease) {
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0));
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 1));
  checker.append(record(obs::TraceEvent::kCompareRelease, 1, 1));
  EXPECT_TRUE(checker.report().ok());
  EXPECT_EQ(checker.releases(), 1u);
}

TEST(QuorumTraceChecker, TripsOnReleaseWithoutQuorum) {
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0));
  checker.append(record(obs::TraceEvent::kCompareRelease, 1, 0));
  EXPECT_FALSE(checker.report().ok());
}

TEST(QuorumTraceChecker, SameReplicaDuplicateVoteDoesNotCount) {
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  // Two ingests from the same replica set the same bit: still one vote.
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0));
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0));
  checker.append(record(obs::TraceEvent::kCompareRelease, 1, 0));
  EXPECT_FALSE(checker.report().ok());
}

TEST(QuorumTraceChecker, FirstCopyModeAcceptsSingleVote) {
  QuorumTraceChecker checker({.quorum = 2, .first_copy = true});
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0));
  checker.append(record(obs::TraceEvent::kCompareRelease, 1, 0));
  EXPECT_TRUE(checker.report().ok());
}

TEST(QuorumTraceChecker, EvictionClearsVotes) {
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0));
  checker.append(record(obs::TraceEvent::kCompareEvictTimeout, 1, 0));
  // The id reappears (retransmission): old votes must not carry over.
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 1));
  checker.append(record(obs::TraceEvent::kCompareRelease, 1, 1));
  EXPECT_FALSE(checker.report().ok());  // one fresh vote < quorum
}

TEST(QuorumTraceChecker, ComponentsAreIndependent) {
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  // Two votes at e0 must not legitimise a release at e1.
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 0, "e0"));
  checker.append(record(obs::TraceEvent::kCompareIngest, 1, 1, "e0"));
  checker.append(record(obs::TraceEvent::kCompareRelease, 1, 1, "e1"));
  EXPECT_FALSE(checker.report().ok());
}

TEST(QuorumTraceChecker, StreamHashDeterministicAndOrderSensitive) {
  QuorumTraceChecker a({.quorum = 2});
  QuorumTraceChecker b({.quorum = 2});
  QuorumTraceChecker c({.quorum = 2});
  const auto r1 = record(obs::TraceEvent::kCompareIngest, 1, 0);
  const auto r2 = record(obs::TraceEvent::kCompareIngest, 2, 1);
  a.append(r1);
  a.append(r2);
  b.append(r1);
  b.append(r2);
  c.append(r2);
  c.append(r1);
  EXPECT_EQ(a.stream_hash(), b.stream_hash());
  EXPECT_NE(a.stream_hash(), c.stream_hash());
}

TEST(QuorumTraceChecker, StreamHashCoversEveryField) {
  // Six copies of a base record, each differing in exactly one field, in
  // a high bit where the field has one: a fold that dropped a field, cut
  // it short or overlapped it with another would make two of these seven
  // one-record streams hash alike.
  const obs::TraceRecord base = record(obs::TraceEvent::kCompareIngest, 1, 0);
  std::vector<obs::TraceRecord> streams(7, base);
  streams[1].at_ns += std::int64_t{1} << 40;
  streams[2].event = obs::TraceEvent::kFailoverReroute;
  streams[3].packet_id ^= std::uint64_t{1} << 63;
  streams[4].replica = std::int32_t{1} << 30;
  streams[5].bytes ^= std::uint32_t{1} << 31;
  streams[6].component = obs::ComponentName::intern("compare/other");
  std::set<std::uint64_t> hashes;
  for (const obs::TraceRecord& r : streams) {
    QuorumTraceChecker checker({.quorum = 2});
    checker.append(r);
    hashes.insert(checker.stream_hash());
  }
  EXPECT_EQ(hashes.size(), streams.size());
}

// --- §XII: fast-path releases and the weighted vote cache ------------------

TEST(QuorumTraceChecker, FastpathReleaseCountsItsOwnVote) {
  // The sampled mode's thinned trace: the release record itself names the
  // deciding replica, with no separate ingest record preceding it.
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  checker.append(record(obs::TraceEvent::kCompareFastpath, 1, 0));
  EXPECT_TRUE(checker.report().ok());
  EXPECT_EQ(checker.releases(), 1u);
}

TEST(QuorumTraceChecker, FastpathReleaseFromQuarantinedReplicaTrips) {
  QuorumTraceChecker::Config cfg;
  cfg.quorum = 3;
  cfg.k = 5;  // adaptive mode: track health records from the stream
  QuorumTraceChecker checker(cfg);
  checker.append(record(obs::TraceEvent::kHealthQuarantine, 0, 2, "health"));
  checker.append(record(obs::TraceEvent::kCompareFastpath, 1, 2));
  EXPECT_FALSE(checker.report().ok())
      << "a quarantined replica's first copy must never be trusted";
}

TEST(QuorumTraceChecker, FastpathFromQuarantinedTripsWithoutAdaptiveMode) {
  // The k == 0 (non-adaptive) config must still reject a quarantined
  // deciding replica: the fast-path release vote is OR'd in from the
  // release record itself, so it would otherwise bypass the quarantine
  // filter that adaptive mode applies to the counted mask.
  QuorumTraceChecker checker({.quorum = 2, .first_copy = false});
  checker.append(record(obs::TraceEvent::kHealthQuarantine, 0, 2, "health"));
  checker.append(record(obs::TraceEvent::kCompareFastpath, 1, 2));
  EXPECT_FALSE(checker.report().ok())
      << "quarantined fast-path vote passed the non-adaptive checker";
}

TEST(QuorumTraceChecker, DuplicateEgressOnSameWireCounted) {
  QuorumTraceChecker::Config cfg;
  cfg.first_copy = true;
  cfg.check_duplicates = true;
  QuorumTraceChecker checker(cfg);
  // Primary and standby feed the same wire (suffix after '/'): a second
  // release of the same packet id inside the window is the split-brain
  // duplicate this invariant hunts.
  checker.append(record(obs::TraceEvent::kCompareFastpath, 7, 0,
                        "compare/netco-e0"));
  checker.append(record(obs::TraceEvent::kCompareIngest, 7, 1,
                        "standby/netco-e0"));
  checker.append(record(obs::TraceEvent::kCompareRelease, 7, 1,
                        "standby/netco-e0"));
  EXPECT_EQ(checker.duplicates(), 1u);
  // A different wire is a different egress: no duplicate.
  checker.append(record(obs::TraceEvent::kCompareIngest, 7, 1,
                        "compare/netco-e1"));
  checker.append(record(obs::TraceEvent::kCompareRelease, 7, 1,
                        "compare/netco-e1"));
  EXPECT_EQ(checker.duplicates(), 1u);
}

TEST(QuorumTraceChecker, EgressSetHashIsOrderIndependent) {
  // The differential anchor: two runs that release the same multiset of
  // packets onto the same wires agree, whatever the interleaving.
  QuorumTraceChecker a({.quorum = 2});
  QuorumTraceChecker b({.quorum = 2});
  a.append(record(obs::TraceEvent::kCompareFastpath, 1, 0, "compare/e0"));
  a.append(record(obs::TraceEvent::kCompareFastpath, 2, 1, "compare/e1"));
  b.append(record(obs::TraceEvent::kCompareFastpath, 2, 1, "compare/e1"));
  b.append(record(obs::TraceEvent::kCompareFastpath, 1, 0, "compare/e0"));
  EXPECT_EQ(a.egress_set_hash(), b.egress_set_hash());
  EXPECT_NE(a.stream_hash(), b.stream_hash());  // order still fingerprinted

  QuorumTraceChecker c({.quorum = 2});
  c.append(record(obs::TraceEvent::kCompareFastpath, 1, 0, "compare/e0"));
  c.append(record(obs::TraceEvent::kCompareFastpath, 3, 1, "compare/e1"));
  EXPECT_NE(a.egress_set_hash(), c.egress_set_hash());
}

net::Packet numbered_packet(std::uint32_t n) {
  std::vector<std::byte> data(64, std::byte{0});
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

TEST(CheckAudit, VoteCacheSqueezeNeverStrandsEntries) {
  // The accounting audit the issue asks for: drive the weighted vote
  // cache through quota pressure, then squeeze the shared capacity knob,
  // and prove every insert is conserved — still resident, or counted in
  // exactly one eviction bucket. A stranded entry (dropped from the cache
  // without an eviction record) would break the fast path's garbage
  // attribution, so conservation is checked exactly, not as >=.
  core::CompareConfig config{.k = 3};
  config.sampling.enabled = true;
  config.cache_capacity = 64;
  config.sampling.vote_quota = 40;
  core::CompareCore core(config);

  // Replica 0 out of the live set: its copies vote with weight 0 and
  // never release, so every entry stays a quota-holding singleton and the
  // per-replica quota is the binding constraint first.
  core.set_replica_live(0, false, at_ms(0));

  const std::uint32_t kPackets = 100;
  for (std::uint32_t i = 1; i <= kPackets; ++i) {
    core.ingest_sampled(0, numbered_packet(i), at_ms(1));
  }
  const core::CompareStore& store = core.store();
  constexpr core::SlotKind kVote = core::SlotKind::kVote;

  // Quota phase: size pinned at the quota plus the escalated routing
  // memos (1-in-period elections, quota-exempt), overflow evicted as
  // quota casualties, and nothing unaccounted.
  const std::uint64_t memos = core.stats().sampled_escalated;
  EXPECT_EQ(store.size(kVote), config.sampling.vote_quota + memos);
  EXPECT_EQ(store.size(kVote) + store.evicted_capacity() +
                store.evicted_quota(),
            kPackets);
  {
    InvariantReport report;
    check_audit(core.audit(), "edge", report);
    EXPECT_TRUE(report.ok()) << (report.details.empty()
                                     ? std::string{}
                                     : report.details.front());
  }

  // Squeeze: the cache capacity knob binds the vote slots too, expelling
  // the surplus as capacity casualties.
  core.set_cache_capacity(16, at_ms(2));
  EXPECT_EQ(store.vote_limit(), 16u);
  EXPECT_LE(store.size(kVote), store.vote_limit());
  EXPECT_EQ(store.size(kVote) + store.evicted_capacity() +
                store.evicted_quota(),
            kPackets);
  {
    InvariantReport report;
    check_audit(core.audit(), "edge", report);
    EXPECT_TRUE(report.ok()) << (report.details.empty()
                                     ? std::string{}
                                     : report.details.front());
  }

  // Release the squeeze and keep running: the cache regrows and the
  // conservation ledger still balances.
  core.set_cache_capacity(config.cache_capacity, at_ms(3));
  EXPECT_EQ(store.vote_limit(), config.cache_capacity);
  for (std::uint32_t i = kPackets + 1; i <= kPackets + 10; ++i) {
    core.ingest_sampled(0, numbered_packet(i), at_ms(4));
  }
  EXPECT_EQ(store.size(kVote) + store.evicted_capacity() +
                store.evicted_quota(),
            kPackets + 10);
  {
    InvariantReport report;
    check_audit(core.audit(), "edge", report);
    EXPECT_TRUE(report.ok()) << (report.details.empty()
                                     ? std::string{}
                                     : report.details.front());
  }
}

// Returns the first packet number >= `start` whose key is NOT elected for
// the full compare under `core`'s sampling config (its first fast-path
// ingest either releases or votes, never escalates).
std::uint32_t first_fastpath_packet(core::CompareCore& core,
                                    std::uint32_t start, int replica,
                                    sim::TimePoint at,
                                    core::FastResult& result) {
  for (std::uint32_t n = start;; ++n) {
    result = core.ingest_sampled(replica, numbered_packet(n), at);
    if (!result.escalated) return n;
  }
}

TEST(FastPath, ReleasedSlotEvictionCannotDuplicateEgress) {
  // The cache-squeeze duplicate: a fast-path release whose vote-cache
  // slot is then evicted under capacity pressure while sibling copies are
  // still in flight. Without the release tombstone the next copy found a
  // vacant key, re-ran the (deterministic, fast-path) election, and
  // released the same packet a second time via healthy-first-copy.
  core::CompareConfig config{.k = 3};
  config.sampling.enabled = true;
  core::CompareCore core(config);

  core::FastResult first;
  const std::uint32_t n = first_fastpath_packet(core, 1, 0, at_ms(1), first);
  ASSERT_TRUE(first.released.has_value());  // healthy first copy released
  EXPECT_EQ(core.stats().fastpath_released, 1u);

  // Squeeze both stores to a single slot: the released slot is expelled
  // (it is the only capacity victim available).
  core.set_cache_capacity(1, at_ms(1));
  core::FastResult other;
  first_fastpath_packet(core, n + 1, 1, at_ms(1), other);
  ASSERT_EQ(core.store().find(core::SlotKind::kVote,
                              numbered_packet(n).content_hash()),
            core::CompareStore::kNil)
      << "test premise: the released slot must be gone";
  const std::uint64_t released_before = core.stats().fastpath_released;

  // A sibling copy inside the hold window lands on the tombstone: late
  // noise, never a second egress.
  const core::FastResult dup = core.ingest_sampled(1, numbered_packet(n),
                                                   at_ms(2));
  EXPECT_FALSE(dup.escalated);
  EXPECT_FALSE(dup.released.has_value());
  EXPECT_EQ(core.stats().fastpath_released, released_before);
  EXPECT_GE(core.stats().late_after_release, 1u);

  // Beyond the hold window the tombstone has expired: a same-hash packet
  // is a legitimate repeat and releases afresh, exactly like the full
  // cache's recreate-after-expiry semantics.
  const core::FastResult later = core.ingest_sampled(0, numbered_packet(n),
                                                     at_ms(30));
  EXPECT_TRUE(later.released.has_value());
}

TEST(FastPath, StragglerAfterSweptReleaseIsLateNotReleased) {
  // Same invariant through the sweep path: the released slot dies at the
  // hold timeout, and a straggler arriving within one more hold window
  // must be absorbed, not re-elected into a fresh releasable slot.
  core::CompareConfig config{.k = 3};
  config.sampling.enabled = true;
  core::CompareCore core(config);

  core::FastResult first;
  const std::uint32_t n = first_fastpath_packet(core, 1, 0, at_ms(1), first);
  ASSERT_TRUE(first.released.has_value());

  core.sweep(at_ms(25));  // hold_timeout (20 ms) expired: slot dies
  ASSERT_EQ(core.store().find(core::SlotKind::kVote,
                              numbered_packet(n).content_hash()),
            core::CompareStore::kNil);

  const core::FastResult dup = core.ingest_sampled(1, numbered_packet(n),
                                                   at_ms(30));
  EXPECT_FALSE(dup.escalated);
  EXPECT_FALSE(dup.released.has_value());
  EXPECT_EQ(core.stats().fastpath_released, 1u);

  // One hold window after the sweep the key is fresh again.
  const core::FastResult later = core.ingest_sampled(0, numbered_packet(n),
                                                     at_ms(60));
  EXPECT_TRUE(later.released.has_value());
  EXPECT_EQ(core.stats().fastpath_released, 2u);
}

TEST(CheckAudit, TripsOnVoteCacheDrift) {
  core::CompareAudit audit = entry_audit(0);
  core::SlotAudit& votes = audit.of(core::SlotKind::kVote);
  votes.capacity = 8;
  votes.size = votes.index_entries = 3;  // three vote slots indexed...
  votes.age_entries = 2;                 // ...but two on the age list
  audit.arena = 3;
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.details.empty());
  EXPECT_NE(report.details.front().find("vote"), std::string::npos);
}

TEST(CheckAudit, TripsOnVoteQuotaLeak) {
  core::CompareAudit audit = entry_audit(0);
  core::SlotAudit& votes = audit.of(core::SlotKind::kVote);
  votes.capacity = 8;
  votes.quota_counts = {3, 0};  // counter says 3 slots held...
  votes.quota_held = {0, 0};    // ...recount says none: a leak
  InvariantReport report;
  check_audit(audit, "edge", report);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace netco::faultinject
