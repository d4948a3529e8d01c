// End-to-end resilience: a mid-soak crash of the *trusted* compare must
// be survived with zero duplicate egress and bounded gap loss — via warm
// standby failover (k ∈ {3, 5}, under fault-plan churn), via warm restart
// from a checkpoint, or via a degraded-mode policy when neither exists.
// The duplicate-egress invariant (QuorumTraceChecker::check_duplicates)
// is armed for every one of these runs, so "zero duplicates" is checked
// per packet against the trace stream, not inferred from counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "golden_hashes.h"
#include "scenario/soak.h"

namespace netco::scenario {
namespace {

/// A short failover soak. The heartbeat is tightened far below the fault
/// plan's minimum outage length ((horizon-start)/64 ≥ 5 ms) so detection
/// plus promotion always beats the crash's scheduled warm restart — the
/// restart then finds the old primary fenced and leaves it retired. The
/// golden pins failover_options(3, 501)'s stream.
constexpr golden::Hashes kGoldenFailoverK3{.text = 0x8a7b4642174b61dbULL,
                                           .stream = 0x023ebee2fac87983ULL};
SoakOptions failover_options(int k, std::uint64_t seed) {
  SoakOptions options;
  options.k = k;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = seed;
  options.packets = 4000;  // ~0.4 s of sim time at 16 Mbit/s / 200 B
  if (k >= 5) options.rate = DataRate::megabits_per_sec(10);
  options.resilience.enabled = true;
  options.resilience.standby = true;
  options.resilience.heartbeat_period = sim::Duration::microseconds(500);
  options.resilience.heartbeat_miss_threshold = 2;
  options.resilience.backoff_factor = 1.5;
  return options;
}

/// A counter's value in a metrics_json snapshot.
std::uint64_t counter_in(const std::string& metrics_json,
                         const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = metrics_json.find(key);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no counter " << name;
    return 0;
  }
  return std::stoull(metrics_json.substr(at + key.size()));
}

/// The harness's resilience counts agree with the run's registry.
void expect_resilience_counts_match_registry(const SoakResult& r) {
  EXPECT_EQ(r.resilience_checkpoints,
            counter_in(r.metrics_json, "resilience.checkpoints"));
  EXPECT_EQ(r.resilience_failovers,
            counter_in(r.metrics_json, "resilience.failovers"));
  EXPECT_EQ(r.resilience_degraded_entries,
            counter_in(r.metrics_json, "resilience.degraded_entries"));
}

void expect_clean_failover(const SoakResult& r) {
  EXPECT_TRUE(r.ok()) << "violations=" << r.invariants.violations;
  for (const auto& detail : r.invariants.details) {
    ADD_FAILURE() << detail;
  }
  // At-most-once egress: not one packet released twice onto the wire,
  // across the primary/standby handover included.
  EXPECT_EQ(r.duplicate_egress, 0u);
  EXPECT_EQ(r.resilience_failovers, 1u);
  // Detection (≤ 0.5 ms + 0.75 ms backoff) plus 200 µs promotion.
  EXPECT_GT(r.time_to_failover_ns, 0);
  EXPECT_LT(r.time_to_failover_ns, sim::Duration::milliseconds(10).ns());
  // The at-most-once guarantee costs gap loss bounded by the quorums the
  // standby shadow-judged during the outage window — a handful of packets
  // at this rate, never an unbounded stall.
  EXPECT_LE(r.gap_loss, 200u);
  EXPECT_GT(r.resilience_checkpoints, 0u);
  // The plant keeps delivering. The exact ratio is dominated by the rest
  // of the churn plan (loss bursts, byzantine swaps), not by the failover
  // itself — 80% is the loose bound that proves the loss stayed bounded.
  EXPECT_GE(static_cast<double>(r.delivered_unique),
            0.80 * static_cast<double>(r.datagrams_sent));
  // Releases count the promoted standby's cores too: the harness total
  // agrees with the registry counter and covers every unique delivery.
  EXPECT_EQ(r.compare_released, counter_in(r.metrics_json, "compare.released"));
  EXPECT_GE(r.compare_released, r.delivered_unique);
  expect_resilience_counts_match_registry(r);
}

TEST(ResilienceE2E, CompareCrashFailsOverK3) {
  const SoakResult result = golden::run_golden(
      kGoldenFailoverK3, "k3 failover",
      [] { return run_soak(failover_options(3, 501)); });
  expect_clean_failover(result);
}

TEST(ResilienceE2E, CompareCrashFailsOverK5) {
  const SoakResult result = run_soak(failover_options(5, 502));
  expect_clean_failover(result);
}

TEST(ResilienceE2E, FailoverMetricsAreSeedDeterministic) {
  for (const int k : {3, 5}) {
    const SoakOptions options = failover_options(k, 601);
    const SoakResult a = run_soak(options);
    const SoakResult b = run_soak(options);
    EXPECT_EQ(a.stream_hash, b.stream_hash) << "k=" << k;
    EXPECT_EQ(a.trace_records, b.trace_records) << "k=" << k;
    EXPECT_EQ(a.metrics_json, b.metrics_json) << "k=" << k;
    // The failover telemetry is part of the determinism contract.
    EXPECT_EQ(a.time_to_failover_ns, b.time_to_failover_ns) << "k=" << k;
    EXPECT_EQ(a.gap_loss, b.gap_loss) << "k=" << k;
    EXPECT_EQ(a.resilience_checkpoints, b.resilience_checkpoints) << "k=" << k;
    EXPECT_EQ(a.downtime_drops, b.downtime_drops) << "k=" << k;
  }
}

TEST(ResilienceE2E, WarmRestartRecoversWithoutStandby) {
  // No standby: the crash is bridged by checkpoint + warm restart. The
  // 80 ms outage drops traffic (fail-closed default), then the restore
  // brings the compare back and the tail of the run is healthy again.
  SoakOptions options;
  options.k = 3;
  options.seed = 503;
  options.packets = 4000;
  options.resilience.enabled = true;
  options.plan.events.push_back(
      {.at_ns = sim::Duration::milliseconds(150).ns(),
       .kind = faultinject::FaultKind::kCompareCrash,
       .duration_ns = sim::Duration::milliseconds(80).ns()});
  options.plan.normalize();
  constexpr golden::Hashes kGoldenWarmRestart{.text = 0xccb6031967d6330aULL,
                                              .stream = 0x36039f6144a8b373ULL};

  const SoakResult r = golden::run_golden(
      kGoldenWarmRestart, "warm-restart", [&] { return run_soak(options); });
  EXPECT_TRUE(r.ok()) << "violations=" << r.invariants.violations;
  for (const auto& detail : r.invariants.details) {
    ADD_FAILURE() << detail;
  }
  EXPECT_EQ(r.duplicate_egress, 0u);
  EXPECT_EQ(r.resilience_failovers, 0u);      // nobody to fail over to
  EXPECT_EQ(r.resilience_degraded_entries, 1u);  // declared dead meanwhile
  EXPECT_GT(r.downtime_drops, 0u);            // the outage was real
  EXPECT_GT(r.resilience_checkpoints, 0u);
  EXPECT_LT(r.delivered_unique, r.datagrams_sent);
  // Post-restore health: the last quarter of the run delivers like a
  // fault-free plant.
  EXPECT_GE(r.tail_goodput_ratio, 0.95);
  // The restore rolls the core's counters back to the checkpoint; the
  // release and ingest totals must still count the releases and ingests
  // made between that checkpoint and the crash.
  EXPECT_EQ(r.compare_released, counter_in(r.metrics_json, "compare.released"));
  EXPECT_GE(r.compare_released, r.delivered_unique);
  EXPECT_EQ(r.compare_ingested, counter_in(r.metrics_json, "compare.ingested"));
  expect_resilience_counts_match_registry(r);
}

TEST(ResilienceE2E, HeartbeatFalsePositiveFailoverIsDuplicateFree) {
  // A monitoring-path partition, primary alive throughout: the watchdog
  // promotes anyway (it cannot distinguish), but fencing runs before the
  // standby goes live, so even this worst case yields zero duplicates —
  // and zero gap loss, because the primary released right up to the fence.
  SoakOptions options;
  options.k = 3;
  options.seed = 504;
  options.packets = 4000;
  options.resilience.enabled = true;
  options.resilience.standby = true;
  options.plan.events.push_back(
      {.at_ns = sim::Duration::milliseconds(150).ns(),
       .kind = faultinject::FaultKind::kHeartbeatLoss,
       .duration_ns = sim::Duration::milliseconds(100).ns()});
  options.plan.normalize();

  const SoakResult r = run_soak(options);
  EXPECT_TRUE(r.ok()) << "violations=" << r.invariants.violations;
  EXPECT_EQ(r.duplicate_egress, 0u);
  EXPECT_EQ(r.resilience_failovers, 1u);
  EXPECT_EQ(r.gap_loss, 0u);
  // No real fault: delivery stays essentially perfect across the handover.
  EXPECT_GE(static_cast<double>(r.delivered_unique),
            0.97 * static_cast<double>(r.datagrams_sent));
}

TEST(ResilienceE2E, DegradedPoliciesBehaveAsSpecified) {
  // One unrecoverable compare crash at t = 150 ms of a ~400 ms run, no
  // standby. What happens next is the policy's call.
  const auto run_policy = [](resilience::DegradedPolicy policy) {
    SoakOptions options;
    options.k = 3;
    options.seed = 505;
    options.packets = 4000;
    options.resilience.enabled = true;
    options.resilience.policy = policy;
    options.plan.events.push_back(
        {.at_ns = sim::Duration::milliseconds(150).ns(),
         .kind = faultinject::FaultKind::kCompareCrash,
         .duration_ns = 0});  // dead for good
    options.plan.normalize();
    return run_soak(options);
  };

  constexpr golden::Hashes kGoldenFailClosed{.text = 0xe2c2b6cded39b096ULL,
                                             .stream = 0x9f7dbecd5e6e0ef8ULL};
  constexpr golden::Hashes kGoldenFailOpenSingle{
      .text = 0xcc777ccc1b60513bULL, .stream = 0x7ce2768f1ae30c58ULL};
  constexpr golden::Hashes kGoldenFailStatic{.text = 0xea7737881626ca47ULL,
                                             .stream = 0x2fe8118d62cdae41ULL};

  const SoakResult closed =
      golden::run_golden(kGoldenFailClosed, "fail_closed", [&] {
        return run_policy(resilience::DegradedPolicy::kFailClosed);
      });
  const SoakResult open =
      golden::run_golden(kGoldenFailOpenSingle, "fail_open_single", [&] {
        return run_policy(resilience::DegradedPolicy::kFailOpenSingle);
      });
  const SoakResult fstatic =
      golden::run_golden(kGoldenFailStatic, "fail_static", [&] {
        return run_policy(resilience::DegradedPolicy::kFailStatic);
      });

  for (const SoakResult* r : {&closed, &open, &fstatic}) {
    EXPECT_TRUE(r->ok()) << "violations=" << r->invariants.violations;
    EXPECT_EQ(r->duplicate_egress, 0u);
    EXPECT_EQ(r->resilience_failovers, 0u);
    EXPECT_EQ(r->resilience_degraded_entries, 1u);
  }

  // fail_closed: safety over availability — everything after the crash
  // punts into the dead process and drops.
  EXPECT_GT(closed.downtime_drops, 0u);
  EXPECT_LT(static_cast<double>(closed.delivered_unique),
            0.60 * static_cast<double>(closed.datagrams_sent));

  // fail_open_single / fail_static: availability restored through the
  // designated replica once the bypass engages (rewire latency resp.
  // switch keepalive after declare-dead), at the cost of the vote.
  EXPECT_GE(static_cast<double>(open.delivered_unique),
            0.85 * static_cast<double>(open.datagrams_sent));
  EXPECT_GE(static_cast<double>(fstatic.delivered_unique),
            0.85 * static_cast<double>(fstatic.datagrams_sent));
  EXPECT_GT(open.delivered_unique, closed.delivered_unique + 1000);
  EXPECT_GT(fstatic.delivered_unique, closed.delivered_unique + 1000);
}

}  // namespace
}  // namespace netco::scenario
