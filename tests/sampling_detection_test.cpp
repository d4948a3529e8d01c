// Detection-latency regression for sampled verification (§XII): thinning
// the compare to 1-in-16 packets must not blunt the health loop. A
// byzantine corrupt-swap still gets its replica quarantined, and the
// time from swap to quarantine stays within 4x of the unsampled
// baseline — the adaptive period collapses to full verification the
// moment the replica's EWMA degrades, so in practice the two latencies
// track closely.
#include <gtest/gtest.h>

#include "faultinject/fault_plan.h"
#include "golden_hashes.h"
#include "scenario/soak.h"

namespace netco::scenario {
namespace {

/// k=5 with the health loop closed and exactly one fault: replica 1
/// turns byzantine-corrupt at 100 ms and honest again at 350 ms. The
/// golden pins the sampled run's stream.
constexpr golden::Hashes kGoldenSwapSampled{.text = 0x34a4a4bf5dab6603ULL,
                                            .stream = 0x4c62fb4ba36ae759ULL};
SoakOptions swap_options(bool sampled) {
  SoakOptions options;
  options.k = 5;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 4242;
  options.packets = 5000;  // ~0.5 s of sim time at 16 Mbit/s / 200 B
  options.health.enabled = true;
  options.sampling.enabled = sampled;
  options.inject_default_faults = false;
  using faultinject::FaultEvent;
  using faultinject::FaultKind;
  using faultinject::SwapBehavior;
  options.plan.events.push_back(
      FaultEvent{.at_ns = sim::Duration::milliseconds(100).ns(),
                 .kind = FaultKind::kBehaviorSwap,
                 .replica = 1,
                 .behavior = SwapBehavior::kCorrupt});
  options.plan.events.push_back(
      FaultEvent{.at_ns = sim::Duration::milliseconds(350).ns(),
                 .kind = FaultKind::kBehaviorSwap,
                 .replica = 1,
                 .behavior = SwapBehavior::kHonest});
  return options;
}

TEST(SamplingDetection, CorruptReplicaStillQuarantinedUnderSampling) {
  const SoakResult baseline = run_soak(swap_options(false));
  const SoakResult sampled = run_soak(swap_options(true));

  ASSERT_TRUE(baseline.ok()) << "violations="
                             << baseline.invariants.violations;
  ASSERT_TRUE(sampled.ok()) << "violations="
                            << sampled.invariants.violations;
  for (const auto& detail : sampled.invariants.details) {
    ADD_FAILURE() << detail;
  }

  // The unsampled baseline detects the swap (sanity for the comparison).
  ASSERT_GE(baseline.health_quarantines, 1u);
  ASSERT_GT(baseline.time_to_quarantine_ns, 0);

  // Sampled mode still detects and quarantines...
  EXPECT_GE(sampled.health_quarantines, 1u);
  ASSERT_GT(sampled.time_to_quarantine_ns, 0)
      << "sampled run never quarantined the corrupt replica";

  // ...within the detection-latency budget.
  EXPECT_LE(sampled.time_to_quarantine_ns,
            4 * baseline.time_to_quarantine_ns)
      << "sampled detection took "
      << static_cast<double>(sampled.time_to_quarantine_ns) / 1e6
      << " ms vs baseline "
      << static_cast<double>(baseline.time_to_quarantine_ns) / 1e6 << " ms";

  // The fast path was actually in force before and after the incident.
  EXPECT_GT(sampled.fastpath_released, 0u);
  EXPECT_GT(sampled.sampled_escalated, 0u);
  // At-most-once egress held throughout the byzantine window.
  EXPECT_EQ(sampled.duplicate_egress, 0u);
}

TEST(SamplingDetection, SwapScenarioIsSeedDeterministic) {
  const SoakResult a = golden::run_golden(
      kGoldenSwapSampled, "k5 swap sampled",
      [] { return run_soak(swap_options(true)); });
  const SoakResult b = run_soak(swap_options(true));
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.egress_set_hash, b.egress_set_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.health_quarantines, b.health_quarantines);
  EXPECT_EQ(a.time_to_quarantine_ns, b.time_to_quarantine_ns);
  EXPECT_EQ(a.fastpath_released, b.fastpath_released);
  EXPECT_EQ(a.sampled_escalated, b.sampled_escalated);
}

}  // namespace
}  // namespace netco::scenario
