// Workload engine: flat-pool mechanics plus end-to-end runs through the
// combiner — every scenario shape terminates, holds the soak invariants,
// and reproduces bit-identically under the same seed, solo and sharded.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/workload.h"
#include "workload/flow_pool.h"

namespace netco::scenario {
namespace {

using workload::FlowPool;
using workload::FlowState;

TEST(WorkloadPool, AcquireReleaseRecyclesWithoutAllocating) {
  FlowPool pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.live(), 0u);

  // Deterministic acquisition order: 0, 1, 2, 3.
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(pool.state[a], FlowState::kPending);
  EXPECT_EQ(pool.live(), 2u);

  const std::uint32_t gen_a = pool.generation[a];
  pool.release(a);
  EXPECT_EQ(pool.state[a], FlowState::kFree);
  EXPECT_EQ(pool.generation[a], gen_a + 1) << "release must bump generation";
  EXPECT_EQ(pool.live(), 1u);

  // The freed slot is recycled before fresh ones.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.acquire(), 2u);
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.acquire(), FlowPool::kNil) << "exhausted pool returns kNil";
  EXPECT_EQ(pool.live(), 4u);
  EXPECT_EQ(pool.peak_live(), 4u);
}

/// Golden stream hashes of three runs built from workload_options below:
/// the flash crowd and the diurnal ramp at the default seed, and the DDoS
/// burst at seed 99. Between them they read every WorkloadConfig setting.
constexpr std::uint64_t kGoldenFlashCrowd = 0x9eab4b04c35116ebULL;
constexpr std::uint64_t kGoldenDiurnal = 0x52be7a58ead90c5aULL;
constexpr std::uint64_t kGoldenDdosBurst = 0x49fd5f927df6ba6fULL;
SoakOptions workload_options(workload::Scenario scenario,
                             std::uint64_t seed = 4242) {
  SoakOptions options;
  options.k = 3;
  options.seed = seed;
  options.workload.enabled = true;
  options.workload.scenario = scenario;
  options.workload.duration = sim::Duration::milliseconds(400);
  options.workload.session_arrivals_per_sec = 120.0;
  options.workload.flows_per_session_mean = 2.0;
  options.workload.think_mean = sim::Duration::milliseconds(40);
  options.workload.flow_max_packets = 64;
  options.workload.pool_capacity = 1024;
  options.workload.active_cap = 64;
  options.workload.ddos_packets_per_sec = 5000.0;
  return options;
}

TEST(WorkloadSmoke, SteadyRunCompletesFlowsAndHoldsInvariants) {
  const SoakResult result = run_soak(workload_options(
      workload::Scenario::kSteady));
  EXPECT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  for (const auto& detail : result.invariants.details) {
    ADD_FAILURE() << detail;
  }
  EXPECT_GT(result.wl_sessions_started, 10u);
  EXPECT_GT(result.wl_flows_completed, 10u);
  EXPECT_GT(result.datagrams_sent, 100u);
  EXPECT_GT(result.delivered_unique, 0u);
  EXPECT_GT(result.compare_released, 0u);
  EXPECT_GT(result.audits, 0u);
  // Every session terminated: the drain released every record.
  EXPECT_EQ(result.wl_sessions_finished, result.wl_sessions_started);
  EXPECT_GT(result.wl_fct_p50_ms, 0.0);
  EXPECT_GE(result.wl_fct_p99_ms, result.wl_fct_p50_ms);
  // Per-flow timers actually rode the wheel.
  EXPECT_GT(result.wl_timer_scheduled, 0u);
  EXPECT_GT(result.wl_timer_fired, 0u);
}

TEST(WorkloadSmoke, SameSeedIsBitReproducible) {
  const SoakOptions options =
      workload_options(workload::Scenario::kFlashCrowd);
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_TRUE(a.ok()) << "violations=" << a.invariants.violations;
  EXPECT_EQ(a.stream_hash, kGoldenFlashCrowd)
      << "flash-crowd trace stream drifted from its golden";
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.datagrams_sent, b.datagrams_sent);
  EXPECT_EQ(a.wl_flows_completed, b.wl_flows_completed);
  EXPECT_EQ(a.wl_fct_p99_ms, b.wl_fct_p99_ms);
}

TEST(WorkloadSmoke, DiurnalRampShapesArrivals) {
  SoakOptions options = workload_options(workload::Scenario::kDiurnal);
  const SoakResult result = run_soak(options);
  EXPECT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  EXPECT_EQ(result.stream_hash, kGoldenDiurnal)
      << "diurnal trace stream drifted from its golden";
  EXPECT_GT(result.wl_sessions_started, 10u);
  EXPECT_GT(result.wl_flows_completed, 0u);
}

TEST(WorkloadSmoke, DdosBurstFloodsOneReplicaAndStillDrains) {
  const SoakResult result = run_soak(workload_options(
      workload::Scenario::kDdosBurst));
  EXPECT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  for (const auto& detail : result.invariants.details) {
    ADD_FAILURE() << detail;
  }
  EXPECT_GT(result.wl_ddos_emitted, 0u) << "the burst never fired";
  // Forged single-replica copies must never reach quorum; legit flows
  // still complete around the flood.
  EXPECT_GT(result.wl_flows_completed, 0u);
  EXPECT_GT(result.delivered_unique, 0u);
}

TEST(WorkloadSmoke, DdosBurstIsBitReproducible) {
  const SoakOptions options =
      workload_options(workload::Scenario::kDdosBurst, 99);
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_EQ(a.stream_hash, kGoldenDdosBurst)
      << "DDoS-burst trace stream drifted from its golden";
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.wl_ddos_emitted, b.wl_ddos_emitted);
}

TEST(WorkloadFleet, MergedHashesAreShardCountInvariant) {
  ShardedSoakOptions fleet;
  fleet.base = workload_options(workload::Scenario::kSteady, 555);
  fleet.base.workload.duration = sim::Duration::milliseconds(250);
  fleet.circuits = 3;

  fleet.shards = 1;
  const ShardedSoakResult one = run_workload_fleet(fleet);
  fleet.shards = 3;
  const ShardedSoakResult three = run_workload_fleet(fleet);

  EXPECT_TRUE(one.ok());
  EXPECT_TRUE(three.ok());
  EXPECT_EQ(one.merged_stream_hash, three.merged_stream_hash);
  EXPECT_EQ(one.merged_egress_hash, three.merged_egress_hash);
  EXPECT_EQ(one.datagrams_sent, three.datagrams_sent);
  EXPECT_EQ(one.delivered_unique, three.delivered_unique);
  // Distinct per-circuit seeds actually diversified the populations.
  EXPECT_NE(one.circuits[0].stream_hash, one.circuits[1].stream_hash);
}

TEST(WorkloadFleet, SingleCircuitFleetReproducesRunWorkload) {
  ShardedSoakOptions fleet;
  fleet.base = workload_options(workload::Scenario::kSteady, 777);
  fleet.base.workload.duration = sim::Duration::milliseconds(250);
  fleet.circuits = 1;
  fleet.shards = 1;
  const ShardedSoakResult sharded = run_workload_fleet(fleet);
  const SoakResult solo = run_soak(fleet.base);
  EXPECT_EQ(sharded.merged_stream_hash, solo.stream_hash);
  EXPECT_EQ(sharded.circuits[0].wl_flows_completed, solo.wl_flows_completed);
}

TEST(WorkloadSmokeDeathTest, RejectsDisabledConfig) {
  ShardedSoakOptions options;
  EXPECT_DEATH(run_workload_fleet(options), "workload.enabled");
}

}  // namespace
}  // namespace netco::scenario
