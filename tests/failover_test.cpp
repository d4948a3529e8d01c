// Tests for the static failover layer: the FlowTable liveness guard, the
// failover-rule compiler, the reroute-loop audit, and the end-to-end
// survive-a-kill scenarios (scenario/failover.h).
#include <gtest/gtest.h>

#include <cstdint>

#include "failover/failover_compiler.h"
#include "faultinject/fabric_injector.h"
#include "faultinject/invariants.h"
#include "golden_hashes.h"
#include "openflow/flow_table.h"
#include "scenario/failover.h"
#include "topo/fattree.h"

namespace netco {
namespace {

using openflow::FlowSpec;
using openflow::FlowTable;
using openflow::Match;

// --- FlowTable liveness guard ----------------------------------------------

TEST(FailoverGuard, LookupSkipsDeadGuardedEntry) {
  FlowTable table;
  const auto now = sim::TimePoint::origin();
  const auto dst = net::MacAddress::from_id(7);

  FlowSpec primary;
  primary.match = Match{}.with_dl_dst(dst);
  primary.actions = {openflow::OutputAction::to(1)};
  primary.priority = 10;
  primary.guard_port = 1;
  table.add(primary, now);

  FlowSpec backup;
  backup.match = Match{}.with_dl_dst(dst);
  backup.actions = {openflow::OutputAction::to(2)};
  backup.priority = 9;
  backup.cookie = openflow::kFailoverCookie;
  table.add(backup, now);

  const Match key = Match{}.with_dl_dst(dst);

  // All ports live: the guarded primary wins, nothing is skipped.
  std::vector<bool> dead(4, false);
  bool skipped = true;
  openflow::FlowEntry* hit = table.lookup(key, 64, now, &dead, &skipped);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->spec.priority, 10);
  EXPECT_FALSE(skipped);

  // Port 1 dead: the backup takes over and the skip is reported.
  dead[1] = true;
  hit = table.lookup(key, 64, now, &dead, &skipped);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->spec.priority, 9);
  EXPECT_EQ(hit->spec.cookie, openflow::kFailoverCookie);
  EXPECT_TRUE(skipped);

  // Recovery: the primary rule matches again.
  dead[1] = false;
  hit = table.lookup(key, 64, now, &dead, &skipped);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->spec.priority, 10);
  EXPECT_FALSE(skipped);

  // Without a liveness vector the guard is inert (legacy callers).
  hit = table.lookup(key, 64, now);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->spec.priority, 10);
}

TEST(FailoverGuard, AllGuardedEntriesDeadIsAMiss) {
  FlowTable table;
  const auto now = sim::TimePoint::origin();
  const auto dst = net::MacAddress::from_id(9);
  FlowSpec only;
  only.match = Match{}.with_dl_dst(dst);
  only.actions = {openflow::OutputAction::to(0)};
  only.priority = 5;
  only.guard_port = 0;
  table.add(only, now);

  std::vector<bool> dead{true};
  bool skipped = false;
  EXPECT_EQ(table.lookup(Match{}.with_dl_dst(dst), 64, now, &dead, &skipped),
            nullptr);
  EXPECT_TRUE(skipped);
}

// --- the compiler -----------------------------------------------------------

TEST(FailoverCompiler, CompilesGuardedLayerForPlainFatTree) {
  topo::FatTreeOptions topts;
  topts.k = 4;
  topo::FatTreeTopology topo(topts);
  const failover::CompileSummary summary = failover::compile_failover(topo);

  const int k = 4;
  const int h = 2;
  EXPECT_EQ(summary.macs, static_cast<std::size_t>(k * h * h));
  // Every edge, aggregation, and core switch gets rules.
  EXPECT_EQ(summary.switches_touched,
            static_cast<std::size_t>(k * h + k * h + h * h));
  EXPECT_GT(summary.rules_installed, 0u);
  EXPECT_GT(summary.primaries_guarded, 0u);

  // Spot-check an edge switch: the primary route toward a remote host is
  // now guarded by its up-port, and backup rules carry the cookie.
  const auto remote = topo.host(1, 0, 0).mac();
  bool guarded_primary = false;
  bool cookied_backup = false;
  for (const openflow::FlowEntry& entry : topo.edge(0, 0).table().entries()) {
    if (entry.spec.priority == 10 && entry.spec.match.covers(
            Match{}.with_dl_dst(remote))) {
      guarded_primary |= entry.spec.guard_port != device::kNoPort;
    }
    cookied_backup |= entry.spec.cookie == openflow::kFailoverCookie;
  }
  EXPECT_TRUE(guarded_primary);
  EXPECT_TRUE(cookied_backup);
}

TEST(FailoverCompiler, RecompileIsIdempotent) {
  topo::FatTreeOptions topts;
  topts.k = 4;
  topo::FatTreeTopology topo(topts);
  const auto first = failover::compile_failover(topo);
  const std::size_t size_after_first = topo.edge(0, 0).table().size();
  const auto second = failover::compile_failover(topo);
  EXPECT_EQ(first.rules_installed, second.rules_installed);
  EXPECT_EQ(topo.edge(0, 0).table().size(), size_after_first);
}

TEST(FailoverCompiler, SkipsWrappedCombinerPosition) {
  topo::FatTreeOptions topts;
  topts.k = 4;
  topts.combine_agg = topo::AggPosition{.pod = 0, .index = 0};
  topts.combiner.k = 3;
  topo::FatTreeTopology topo(topts);
  const auto summary = failover::compile_failover(topo);
  // One aggregation position is the combiner and gets no compiled rules.
  EXPECT_EQ(summary.switches_touched,
            static_cast<std::size_t>(4 * 2 + 4 * 2 - 1 + 2 * 2));
}

// --- reroute-loop audit ------------------------------------------------------

TEST(RerouteAudit, FlagsSameStateRevisitAsLoop) {
  faultinject::QuorumTraceChecker checker(
      {.quorum = 1, .check_duplicates = true, .audit_reroutes = true});
  obs::TraceRecord record;
  record.event = obs::TraceEvent::kFailoverReroute;
  record.component = obs::ComponentName::intern("netco-a0-0");
  record.packet_id = 0xABCD;
  record.at_ns = 1'000;
  checker.append(record);
  EXPECT_EQ(checker.duplicates(), 0u);
  // A different packet rerouted at the same switch is fine.
  record.packet_id = 0xABCE;
  record.at_ns = 2'000;
  checker.append(record);
  EXPECT_EQ(checker.duplicates(), 0u);
  // The same packet id at the same switch inside the window is a loop.
  record.packet_id = 0xABCD;
  record.at_ns = 3'000;
  checker.append(record);
  EXPECT_EQ(checker.duplicates(), 1u);
  EXPECT_EQ(checker.report().violations, 1u);
  EXPECT_EQ(checker.reroutes(), 3u);
}

TEST(RerouteAudit, DisabledByDefault) {
  faultinject::QuorumTraceChecker checker({.quorum = 1,
                                           .check_duplicates = true});
  obs::TraceRecord record;
  record.event = obs::TraceEvent::kFailoverReroute;
  record.component = obs::ComponentName::intern("netco-a0-0");
  record.packet_id = 0xABCD;
  checker.append(record);
  record.at_ns = 1'000;
  checker.append(record);
  EXPECT_EQ(checker.reroutes(), 2u);
  EXPECT_EQ(checker.duplicates(), 0u);
}

// --- end-to-end -------------------------------------------------------------

scenario::FailoverOptions quick_options() {
  scenario::FailoverOptions options;
  options.seed = 1;
  return options;  // the 500 ms defaults are already CI-sized
}

TEST(FailoverE2ETest, BaselineCarriesEverything) {
  const auto r = scenario::run_failover(quick_options());
  EXPECT_EQ(r.data_delivered, r.data_sent);
  EXPECT_EQ(r.fault_events, 0u);
  EXPECT_EQ(r.failover_reroutes, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_TRUE(r.absorbed);
}

TEST(FailoverE2ETest, SingleLinkCutAbsorbedByStaticRules) {
  scenario::FailoverOptions options = quick_options();
  options.link_cuts = 1;
  options.target = faultinject::KillTarget::kPrimaryPath;
  constexpr golden::Hashes kGoldenSingleLinkCut{
      .text = 0x49a0eb906635fcefULL, .stream = 0x02ceac08602963afULL};
  const auto r = golden::run_golden(kGoldenSingleLinkCut, "single-cut", [&] {
    return scenario::run_failover(options);
  });
  EXPECT_EQ(r.fault_events, 1u);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.absorbed);
  EXPECT_LT(r.goodput_dip, 1.0);  // the cut provably hit traffic
  EXPECT_GT(r.failover_reroutes, 0u);
  EXPECT_GT(r.static_backup_hits, 0u);
  EXPECT_EQ(r.controller_packet_ins, 0u);  // no controller in the loop
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.reroute_latency_ns, 0);
}

TEST(FailoverE2ETest, SingleSwitchKillAbsorbedByStaticRules) {
  scenario::FailoverOptions options = quick_options();
  options.switch_kills = 1;
  options.target = faultinject::KillTarget::kPrimaryPath;
  const auto r = scenario::run_failover(options);
  EXPECT_EQ(r.fault_events, 1u);
  EXPECT_TRUE(r.absorbed);
  EXPECT_LT(r.goodput_dip, 1.0);
  EXPECT_GT(r.failover_reroutes, 0u);
  EXPECT_EQ(r.controller_packet_ins, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(FailoverE2ETest, DownPathCutTakesVlanDetourWithoutLooping) {
  // Cut the agg(1,0) → edge(1,0) down-link explicitly: traffic into pod 1
  // must cross to aggregation index 1, which is only reachable by tagging
  // the packet down to a sibling edge and re-ascending — the VLAN
  // hop-budget detour. The audit proves no packet revisited a switch.
  scenario::FailoverOptions options = quick_options();
  topo::FatTreeTopology scratch(topo::FatTreeOptions{});  // sid arithmetic
  faultinject::FaultEvent cut;
  cut.at_ns = scenario::FailoverOptions::kFailAt.ns();
  cut.kind = faultinject::FaultKind::kFabricLinkCut;
  cut.node = scratch.agg_sid(1, 0);
  cut.peer = scratch.edge_sid(1, 0);
  options.plan.events.push_back(cut);
  constexpr golden::Hashes kGoldenDownPathCut{.text = 0x12c4b8a29d82682cULL,
                                              .stream = 0x6cfa36a1c7f0fb34ULL};
  const auto r =
      golden::run_golden(kGoldenDownPathCut, "down-path detour",
                         [&] { return scenario::run_failover(options); });
  EXPECT_EQ(r.fault_events, 1u);
  EXPECT_TRUE(r.absorbed);
  EXPECT_GT(r.checker_reroutes, 0u);
  EXPECT_EQ(r.duplicates, 0u);  // the hop budget never looped
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(FailoverE2ETest, CorrelatedMultiFailureSmoke) {
  scenario::FailoverOptions options = quick_options();
  options.link_cuts = 2;
  options.target = faultinject::KillTarget::kPrimaryPath;
  const auto r = scenario::run_failover(options);
  EXPECT_EQ(r.fault_events, 2u);
  EXPECT_TRUE(r.absorbed);
  EXPECT_GT(r.failover_reroutes, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(FailoverE2ETest, AblationWithoutCompilerDoesNotSurvive) {
  scenario::FailoverOptions options = quick_options();
  options.compile_backup_rules = false;
  options.link_cuts = 1;
  options.target = faultinject::KillTarget::kPrimaryPath;
  const auto r = scenario::run_failover(options);
  EXPECT_EQ(r.backup_rules_installed, 0u);
  EXPECT_FALSE(r.recovered);
  EXPECT_FALSE(r.absorbed);
  EXPECT_LT(r.goodput_overall, 1.0);
  EXPECT_EQ(r.failover_reroutes, 0u);  // nothing to reroute onto
}

TEST(FailoverFleetTest, DeterministicSoloAndShardedFleet) {
  scenario::FailoverOptions options = quick_options();
  options.link_cuts = 1;
  options.target = faultinject::KillTarget::kPrimaryPath;

  const auto solo_a = scenario::run_failover(options);
  const auto solo_b = scenario::run_failover(options);
  EXPECT_EQ(solo_a.stream_hash, solo_b.stream_hash);
  EXPECT_EQ(solo_a.data_delivered, solo_b.data_delivered);

  const auto fleet1 = scenario::run_failover_fleet(options, 1, 1);
  EXPECT_EQ(fleet1.merged_stream_hash, solo_a.stream_hash);

  const auto fleet2a = scenario::run_failover_fleet(options, 2, 1);
  const auto fleet2b = scenario::run_failover_fleet(options, 2, 2);
  EXPECT_EQ(fleet2a.merged_stream_hash, fleet2b.merged_stream_hash);
  EXPECT_FALSE(fleet2a.metrics_json.empty());
  EXPECT_EQ(fleet2a.metrics_json, fleet2b.metrics_json);
  ASSERT_EQ(fleet2a.circuits.size(), 2u);
  EXPECT_TRUE(fleet2a.circuits[0].absorbed);
  EXPECT_EQ(fleet2a.circuits[0].stream_hash, solo_a.stream_hash);
}

}  // namespace
}  // namespace netco
