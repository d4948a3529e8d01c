// Tier-1 smoke for the soak harness: a short fault-injected run must
// complete with zero invariant violations and reproduce bit-identically
// under the same seed. The full-length version lives in bench/soak_netco.
#include <gtest/gtest.h>

#include "obs/observability.h"
#include "scenario/soak.h"

namespace netco::scenario {
namespace {

SoakOptions smoke_options() {
  SoakOptions options;
  options.k = 3;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 77;
  options.packets = 2500;  // ~0.25 s of sim time at 16 Mbit/s / 200 B
  return options;
}

TEST(SoakSmoke, ShortRunHoldsInvariantsUnderFaults) {
  const SoakResult result = run_soak(smoke_options());
  EXPECT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  for (const auto& detail : result.invariants.details) {
    ADD_FAILURE() << detail;
  }
  EXPECT_GE(result.datagrams_sent, 2500u);
  EXPECT_GT(result.compare_released, 0u);
  EXPECT_GT(result.fault_events_applied, 0u);  // the plan actually ran
  EXPECT_GT(result.audits, 0u);
  EXPECT_GT(result.invariants.checks, 0u);
}

TEST(CircuitRunner, ForwardsRecordsToTheSinkInstalledBeforeIt) {
  // A bench's NETCO_TRACE_OUT file or a test's ring, installed around a
  // harness run, sees every record the run's checker sees.
  SoakOptions options = smoke_options();
  options.packets = 500;
  obs::RingBufferSink ring;
  SoakResult result;
  {
    obs::ScopedTraceSink scoped(ring);
    result = run_soak(options);
  }
  EXPECT_GT(result.trace_records, 0u);
  EXPECT_EQ(ring.total_appended(), result.trace_records);
}

TEST(SoakSmoke, SameSeedIsBitReproducible) {
  const SoakResult a = run_soak(smoke_options());
  const SoakResult b = run_soak(smoke_options());
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.compare_released, b.compare_released);
}

TEST(SoakSmoke, SameSeedIsBitReproducibleK2FirstCopy) {
  SoakOptions options = smoke_options();
  options.k = 2;
  options.policy = core::ReleasePolicy::kFirstCopy;
  options.seed = 101;
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_TRUE(a.ok()) << "violations=" << a.invariants.violations;
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.compare_released, b.compare_released);
}

TEST(SoakSmoke, HealthLoopRunIsBitReproducible) {
  SoakOptions options = smoke_options();
  options.health.enabled = true;
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_TRUE(a.ok()) << "violations=" << a.invariants.violations;
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.compare_released, b.compare_released);
  // Health outcomes are part of the determinism contract too.
  EXPECT_EQ(a.health_quarantines, b.health_quarantines);
  EXPECT_EQ(a.health_readmits, b.health_readmits);
  EXPECT_EQ(a.health_bans, b.health_bans);
  EXPECT_EQ(a.health_probe_windows, b.health_probe_windows);
  EXPECT_EQ(a.first_quarantine_ns, b.first_quarantine_ns);
  EXPECT_EQ(a.first_readmit_ns, b.first_readmit_ns);
}

// Configuration validation happens at harness construction, with full
// context, instead of surfacing later as silent vote drops.
TEST(SoakSmokeDeathTest, RejectsOversizedFleet) {
  SoakOptions options = smoke_options();
  options.k = 64;
  EXPECT_DEATH(run_soak(options), "SoakOptions.k out of range");
}

TEST(SoakSmokeDeathTest, RejectsEmptyRun) {
  SoakOptions options = smoke_options();
  options.packets = 0;
  EXPECT_DEATH(run_soak(options), "NETCO_ASSERT failed");
}

}  // namespace
}  // namespace netco::scenario
