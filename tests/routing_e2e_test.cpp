// End-to-end routing convergence through the router position
// (scenario/convergence.h): the diamond of four RIP speakers with the
// RA—RB hop passing through either a single unprotected switch or a k=3
// combiner circuit, while replicas inside the position lie about routes.
//
// The headline acceptance claim lives here as a tier-1 test: ONE lying
// replica defeats the unprotected position but not the combiner — the
// paper's data-plane reliability argument carried over to the control
// plane. The suite name (RoutingConvergence) is load-bearing: the tsan
// CMake preset selects these tests by name to race-check the fleet path.
#include <gtest/gtest.h>

#include <cstdint>

#include "golden_hashes.h"
#include "scenario/convergence.h"

namespace netco::scenario {
namespace {

ConvergenceOptions quick_options() {
  ConvergenceOptions options;
  options.seed = 7;
  // The quick-bench horizon: long enough for initial convergence plus
  // several periodic-update rounds of sustained agreement.
  options.horizon = sim::Duration::milliseconds(1500);
  return options;
}

TEST(RoutingConvergence, BenignConvergesInBothModes) {
  for (const bool use_combiner : {false, true}) {
    ConvergenceOptions options = quick_options();
    options.use_combiner = use_combiner;
    options.liars = 0;
    options.attack = RoutingAttack::kNone;
    const ConvergenceResult result = run_convergence(options);
    EXPECT_TRUE(result.converged_correct)
        << (use_combiner ? "combiner" : "unprotected");
    EXPECT_GE(result.convergence_ns, 0);
    EXPECT_EQ(result.invariant_violations, 0u);
    EXPECT_GT(result.updates_received, 0u);
    EXPECT_GT(result.goodput_overall, 0.9);
  }
}

TEST(RoutingConvergence, OneLiarDefeatsUnprotectedButNotCombiner) {
  // The acceptance criterion. Same seed, same attack, same timing — the
  // only difference is what sits in the router position.
  ConvergenceOptions options = quick_options();
  options.liars = 1;
  options.attack = RoutingAttack::kInflate;
  constexpr golden::Hashes kGoldenInflateCombiner{
      .text = 0x431146bf16922fd2ULL, .stream = 0x5c1968c029868f09ULL};
  constexpr golden::Hashes kGoldenInflateUnprotected{
      .text = 0x0ea5f6df1ecd9d15ULL, .stream = 0xba79b056a363c8beULL};

  options.use_combiner = true;
  const ConvergenceResult protected_run = golden::run_golden(
      kGoldenInflateCombiner, "combiner",
      [&] { return run_convergence(options); });
  EXPECT_TRUE(protected_run.converged_correct)
      << "2 honest replicas out-vote the liar in a k=3 quorum";
  EXPECT_GE(protected_run.convergence_ns, 0);
  EXPECT_EQ(protected_run.invariant_violations, 0u);

  options.use_combiner = false;
  const ConvergenceResult unprotected_run = golden::run_golden(
      kGoldenInflateUnprotected, "unprotected",
      [&] { return run_convergence(options); });
  EXPECT_FALSE(unprotected_run.converged_correct)
      << "a single lying switch owns the unprotected position";
}

TEST(RoutingConvergence, TwoIdenticalLiarsOutvoteK3Quorum) {
  // The quorum boundary, measured: metric rewriting is a pure function of
  // the wire bytes, so two liars emit bit-identical lies and win 2-of-3.
  // Expected failure mode, locked in so a change that accidentally breaks
  // liar determinism (making the lies diverge and lose quorum) shows up.
  ConvergenceOptions options = quick_options();
  options.use_combiner = true;
  options.liars = 2;
  options.attack = RoutingAttack::kInflate;
  const ConvergenceResult result = run_convergence(options);
  EXPECT_FALSE(result.converged_correct);
}

TEST(RoutingConvergence, BlackholeCollapsesGoodputOnlyWhenUnprotected) {
  ConvergenceOptions options = quick_options();
  options.liars = 1;
  options.attack = RoutingAttack::kBlackhole;

  options.use_combiner = true;
  const ConvergenceResult protected_run = run_convergence(options);
  EXPECT_TRUE(protected_run.converged_correct);
  EXPECT_GT(protected_run.goodput_overall, 0.9)
      << "the quorum releases copies from the honest replicas";

  options.use_combiner = false;
  const ConvergenceResult unprotected_run = run_convergence(options);
  EXPECT_GT(unprotected_run.data_dropped_by_liars, 0u);
  EXPECT_LT(unprotected_run.goodput_overall,
            protected_run.goodput_overall / 2)
      << "poisoned announcements attract the flow into the blackhole";
}

TEST(RoutingConvergence, SoloRunsAreSeedDeterministic) {
  ConvergenceOptions options = quick_options();
  options.use_combiner = true;
  options.liars = 1;
  options.attack = RoutingAttack::kInflate;
  const ConvergenceResult a = run_convergence(options);
  const ConvergenceResult b = run_convergence(options);
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.convergence_ns, b.convergence_ns);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.updates_sent, b.updates_sent);
  EXPECT_EQ(a.route_changes, b.route_changes);
}

TEST(RoutingConvergence, FleetMergedHashIsShardCountInvariant) {
  // The sharded-fleet determinism lock: the same two circuits produce the
  // same merged stream hash whether they share one worker or race on two,
  // and circuit 0 reproduces the solo run bit-for-bit.
  ConvergenceOptions base = quick_options();
  base.use_combiner = true;
  base.liars = 1;
  base.attack = RoutingAttack::kInflate;

  const ConvergenceResult solo = run_convergence(base);
  const FleetResult<ConvergenceResult> one_shard =
      run_convergence_fleet(base, 2, 1);
  const FleetResult<ConvergenceResult> two_shards =
      run_convergence_fleet(base, 2, 2);

  ASSERT_EQ(one_shard.circuits.size(), 2u);
  ASSERT_EQ(two_shards.circuits.size(), 2u);
  EXPECT_EQ(one_shard.merged_stream_hash, two_shards.merged_stream_hash);
  EXPECT_FALSE(one_shard.metrics_json.empty());
  EXPECT_EQ(one_shard.metrics_json, two_shards.metrics_json);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(one_shard.circuits[i].stream_hash,
              two_shards.circuits[i].stream_hash)
        << "circuit " << i;
    EXPECT_EQ(one_shard.circuits[i].converged_correct,
              two_shards.circuits[i].converged_correct)
        << "circuit " << i;
  }
  EXPECT_EQ(one_shard.circuits[0].stream_hash, solo.stream_hash);
}

}  // namespace
}  // namespace netco::scenario
