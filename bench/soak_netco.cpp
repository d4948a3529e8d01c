// Soak: ~10^6 packets through k ∈ {2, 3, 5} combiner circuits under a
// deterministic fault plan (link churn, loss/latency ramps, replica
// crashes, byzantine swaps, cache squeezes), with online invariant
// checking and a same-seed determinism double-run.
//
// Verdict (exit status): 0 iff every configuration finished with zero
// invariant violations AND byte-identical trace/metrics across the two
// same-seed runs. Writes a machine-readable summary to BENCH_soak.json.
//
// Env knobs:
//   NETCO_SOAK_PACKETS=n  — datagrams offered per configuration run
//   NETCO_BENCH_QUICK=1   — small CI-sized runs: fewer packets AND only
//                           one configuration per feature family
//   NETCO_SOAK_OUT=path   — summary path (default BENCH_soak.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "netco/compare_core.h"
#include "scenario/soak.h"

namespace {

struct SoakConfig {
  const char* name;
  int k;
  netco::core::ReleasePolicy policy;
  /// Offered rate, scaled so k × pps stays below the compare controller's
  /// packet-in capacity (~80k/s for the c_program profile) — overload
  /// would drown the fault dynamics in steady-state queue drops.
  std::uint64_t rate_mbps;
  /// Run with the replica-health loop (quarantine/readmit) enabled.
  bool health = false;
  /// Run with the resilience subsystem + warm standby: the default fault
  /// plan then also kills the trusted compare once mid-run, and the
  /// duplicate-egress invariant arms.
  bool failover = false;
  /// Run with the sampled-verification fast path (§XII): 1-in-N packets
  /// take the full k-way compare, the rest release on a reputation-
  /// weighted first copy at the edge. Arms the duplicate-egress invariant.
  bool sampled = false;
  /// Replace the default random fault plan with one deterministic
  /// byzantine corrupt-swap (plus honest swap-back): the matched-plan
  /// throughput/detection pair for §XII. The random plan's churn keeps
  /// the adaptive sampler collapsed for a fixed-size transient, so short
  /// runs would measure the transient, not steady-state throughput — and
  /// its crashes quarantine replicas before the swap, degenerating the
  /// time-to-quarantine telemetry.
  bool single_swap = false;
  /// Skipped under NETCO_BENCH_QUICK: redundant with a kept config of the
  /// same feature family, so CI smoke runs stay short.
  bool full_only = false;
};

netco::faultinject::FaultPlan single_swap_plan(std::int64_t horizon_ns) {
  using netco::faultinject::FaultEvent;
  using netco::faultinject::FaultKind;
  using netco::faultinject::SwapBehavior;
  netco::faultinject::FaultPlan plan;
  // Corrupt replica 2 a fifth of the way in; hand it back honest at 60%
  // so the run also exercises probation probes and readmission.
  plan.events.push_back(FaultEvent{.at_ns = horizon_ns / 5,
                                   .kind = FaultKind::kBehaviorSwap,
                                   .replica = 2,
                                   .behavior = SwapBehavior::kCorrupt});
  plan.events.push_back(FaultEvent{.at_ns = horizon_ns * 3 / 5,
                                   .kind = FaultKind::kBehaviorSwap,
                                   .replica = 2,
                                   .behavior = SwapBehavior::kHonest});
  return plan;
}

std::uint64_t packets_per_run() {
  if (const char* env = std::getenv("NETCO_SOAK_PACKETS");
      env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  if (std::getenv("NETCO_BENCH_QUICK") != nullptr) return 10'000;
  return 120'000;
}

}  // namespace

int main() {
  using namespace netco;
  using scenario::SoakResult;

  const SoakConfig configs[] = {
      {"k2-firstcopy", 2, core::ReleasePolicy::kFirstCopy, 24, false},
      {"k3-majority", 3, core::ReleasePolicy::kMajority, 16, false},
      {"k5-majority", 5, core::ReleasePolicy::kMajority, 10, false, false,
       false, false, /*full_only=*/true},
      // Same circuit and fault plan as k5-majority, but with the health
      // loop closing on the byzantine swaps and crashes the plan injects.
      {"k5-health", 5, core::ReleasePolicy::kMajority, 10, true},
      // Trusted-component resilience: the plan additionally crashes the
      // compare itself mid-run; a warm standby takes over. Majority policy
      // (first-copy would let a post-restart straggler re-release).
      {"k3-failover", 3, core::ReleasePolicy::kMajority, 16, false, true},
      {"k5-failover", 5, core::ReleasePolicy::kMajority, 10, false, true,
       false, false, /*full_only=*/true},
      // The §XII matched pair: same circuit, seed, health loop, and
      // deterministic single corrupt-swap plan — differing only in the
      // sampled-verification fast path. k5-sampled / k5-swap wall-pps is
      // the headline speedup; their time_to_quarantine delta is its
      // detection-latency cost.
      {"k5-swap", 5, core::ReleasePolicy::kMajority, 10, true, false, false,
       true},
      {"k5-sampled", 5, core::ReleasePolicy::kMajority, 10, true, false,
       true, true},
  };
  const std::uint64_t packets = packets_per_run();
  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;

  std::printf("\n=== NetCo soak — fault-injected combiner churn ===\n");
  std::printf(
      "%llu datagrams per config, run twice per seed (determinism check).%s\n\n",
      static_cast<unsigned long long>(packets),
      quick ? " [quick: one config per family]" : "");

  bool all_ok = true;
  std::string json = "{\"bench\":\"soak\",\"packets_per_run\":" +
                     std::to_string(packets) + ",\"configs\":[";

  bool first = true;
  double k5_swap_wall_pps = 0.0;
  double k5_sampled_wall_pps = 0.0;
  for (const SoakConfig& config : configs) {
    if (quick && config.full_only) {
      std::printf("%-14s skipped (NETCO_BENCH_QUICK)\n", config.name);
      continue;
    }
    scenario::SoakOptions options;
    options.k = config.k;
    options.policy = config.policy;
    options.seed = 0xDECAFBAD ^ static_cast<std::uint64_t>(config.k);
    options.packets = packets;
    options.rate = DataRate::megabits_per_sec(config.rate_mbps);
    options.health.enabled = config.health;
    options.sampling.enabled = config.sampled;
    if (config.single_swap) {
      // Mirror scenario::expected_duration: horizon = packets / offered pps.
      const double pps = static_cast<double>(options.rate.bps()) /
                         (static_cast<double>(options.payload_bytes) * 8.0);
      options.plan = single_swap_plan(static_cast<std::int64_t>(
          1e9 * static_cast<double>(packets) / pps));
    }
    if (config.failover) {
      options.resilience.enabled = true;
      options.resilience.standby = true;
      // Tight watchdog so detection + promotion beats even the quick
      // mode's shortest crash window — the failover path, not the warm
      // restart, is what this configuration measures.
      options.resilience.heartbeat_period = sim::Duration::milliseconds(1);
      options.resilience.heartbeat_miss_threshold = 2;
      options.resilience.backoff_factor = 1.5;
    }

    const SoakResult a = scenario::run_soak(options);
    const SoakResult b = scenario::run_soak(options);
    const bool deterministic = a.stream_hash == b.stream_hash &&
                               a.metrics_json == b.metrics_json &&
                               a.trace_records == b.trace_records;
    const bool ok = a.ok() && b.ok() && deterministic;
    all_ok = all_ok && ok;

    std::printf(
        "%-14s sent=%-8llu ingested=%-8llu released=%-8llu "
        "faults=%llu audits=%llu\n",
        config.name, static_cast<unsigned long long>(a.datagrams_sent),
        static_cast<unsigned long long>(a.compare_ingested),
        static_cast<unsigned long long>(a.compare_released),
        static_cast<unsigned long long>(a.fault_events_applied),
        static_cast<unsigned long long>(a.audits));
    std::printf(
        "               %.0f pkt/s sim (%.0f pkt/s wall), verdict latency "
        "p50=%.1fus p95=%.1fus p99=%.1fus\n",
        a.throughput_pps, a.wall_pps, a.verdict_p50_us, a.verdict_p95_us,
        a.verdict_p99_us);
    std::printf(
        "               invariants: %llu checks, %llu violations; "
        "deterministic=%s  -> %s\n",
        static_cast<unsigned long long>(a.invariants.checks),
        static_cast<unsigned long long>(a.invariants.violations),
        deterministic ? "yes" : "NO", ok ? "OK" : "FAIL");
    if (config.health) {
      std::printf(
          "               health: %llu quarantines (%llu readmits, %llu "
          "bans), first at %.1fms, tail goodput %.3f\n",
          static_cast<unsigned long long>(a.health_quarantines),
          static_cast<unsigned long long>(a.health_readmits),
          static_cast<unsigned long long>(a.health_bans),
          a.first_quarantine_ns >= 0
              ? static_cast<double>(a.first_quarantine_ns) / 1e6
              : -1.0,
          a.tail_goodput_ratio);
    }
    if (config.failover) {
      std::printf(
          "               failover: %llu promoted in %.2fms, gap loss %llu, "
          "duplicates %llu, %llu checkpoints, tail goodput %.3f\n",
          static_cast<unsigned long long>(a.resilience_failovers),
          a.time_to_failover_ns >= 0
              ? static_cast<double>(a.time_to_failover_ns) / 1e6
              : -1.0,
          static_cast<unsigned long long>(a.gap_loss),
          static_cast<unsigned long long>(a.duplicate_egress),
          static_cast<unsigned long long>(a.resilience_checkpoints),
          a.tail_goodput_ratio);
    }
    if (config.sampled) {
      std::printf(
          "               sampled: %llu fast-path releases, %llu escalated, "
          "duplicates %llu, time-to-quarantine %.1fms\n",
          static_cast<unsigned long long>(a.fastpath_released),
          static_cast<unsigned long long>(a.sampled_escalated),
          static_cast<unsigned long long>(a.duplicate_egress),
          a.time_to_quarantine_ns >= 0
              ? static_cast<double>(a.time_to_quarantine_ns) / 1e6
              : -1.0);
    }
    for (const std::string& detail : a.invariants.details) {
      std::printf("               violation: %s\n", detail.c_str());
    }
    // Each config runs twice for the determinism check, which also gives
    // two wall samples; the speedup ratio takes the best of each pair
    // (min-of-N timing) so a scheduler hiccup in one run does not skew
    // the headline number on a noisy host.
    if (std::string(config.name) == "k5-swap") {
      k5_swap_wall_pps = std::max(a.wall_pps, b.wall_pps);
    } else if (std::string(config.name) == "k5-sampled") {
      k5_sampled_wall_pps = std::max(a.wall_pps, b.wall_pps);
    }

    // With neither the health loop nor failover in play nothing is
    // steering the tail, so the ratio is just the run's natural tail
    // goodput — label it as the baseline so it cannot read like a
    // health-loop regression.
    const char* tail_goodput_key = config.health || config.failover
                                       ? "tail_goodput_ratio"
                                       : "tail_goodput_baseline";
    char buf[1536];
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"k\":%d,\"policy\":\"%s\","
        "\"packets\":%llu,\"ingested\":%llu,\"released\":%llu,"
        "\"delivered_unique\":%llu,\"throughput_pps\":%.1f,"
        "\"wall_pps\":%.1f,"
        "\"verdict_latency_us\":{\"p50\":%.2f,\"p95\":%.2f,\"p99\":%.2f},"
        "\"invariants\":{\"checks\":%llu,\"violations\":%llu},"
        "\"fault_events_applied\":%llu,\"trace_records\":%llu,"
        "\"health\":{\"enabled\":%s,\"quarantines\":%llu,\"readmits\":%llu,"
        "\"bans\":%llu,\"probe_windows\":%llu,\"first_quarantine_ns\":%lld,"
        "\"first_readmit_ns\":%lld,\"%s\":%.4f},"
        "\"resilience\":{\"enabled\":%s,\"checkpoints\":%llu,"
        "\"failovers\":%llu,\"time_to_failover_ns\":%lld,\"gap_loss\":%llu,"
        "\"duplicate_egress\":%llu,\"downtime_drops\":%llu,"
        "\"suppressed_recovered\":%llu},"
        "\"sampling\":{\"enabled\":%s,\"fastpath_released\":%llu,"
        "\"sampled_escalated\":%llu,\"egress_set_hash\":\"%016llx\","
        "\"first_swap_ns\":%lld,\"time_to_quarantine_ns\":%lld},"
        "\"stream_hash\":\"%016llx\",\"deterministic\":%s}",
        first ? "" : ",", config.name, config.k,
        config.policy == core::ReleasePolicy::kFirstCopy ? "first_copy"
                                                         : "majority",
        static_cast<unsigned long long>(a.datagrams_sent),
        static_cast<unsigned long long>(a.compare_ingested),
        static_cast<unsigned long long>(a.compare_released),
        static_cast<unsigned long long>(a.delivered_unique),
        a.throughput_pps, a.wall_pps, a.verdict_p50_us, a.verdict_p95_us,
        a.verdict_p99_us,
        static_cast<unsigned long long>(a.invariants.checks),
        static_cast<unsigned long long>(a.invariants.violations),
        static_cast<unsigned long long>(a.fault_events_applied),
        static_cast<unsigned long long>(a.trace_records),
        config.health ? "true" : "false",
        static_cast<unsigned long long>(a.health_quarantines),
        static_cast<unsigned long long>(a.health_readmits),
        static_cast<unsigned long long>(a.health_bans),
        static_cast<unsigned long long>(a.health_probe_windows),
        static_cast<long long>(a.first_quarantine_ns),
        static_cast<long long>(a.first_readmit_ns), tail_goodput_key,
        a.tail_goodput_ratio,
        config.failover ? "true" : "false",
        static_cast<unsigned long long>(a.resilience_checkpoints),
        static_cast<unsigned long long>(a.resilience_failovers),
        static_cast<long long>(a.time_to_failover_ns),
        static_cast<unsigned long long>(a.gap_loss),
        static_cast<unsigned long long>(a.duplicate_egress),
        static_cast<unsigned long long>(a.downtime_drops),
        static_cast<unsigned long long>(a.suppressed_recovered),
        config.sampled ? "true" : "false",
        static_cast<unsigned long long>(a.fastpath_released),
        static_cast<unsigned long long>(a.sampled_escalated),
        static_cast<unsigned long long>(a.egress_set_hash),
        static_cast<long long>(a.first_swap_ns),
        static_cast<long long>(a.time_to_quarantine_ns),
        static_cast<unsigned long long>(a.stream_hash),
        deterministic ? "true" : "false");
    json += buf;
    first = false;
  }

  const double sampled_speedup =
      k5_swap_wall_pps > 0.0 ? k5_sampled_wall_pps / k5_swap_wall_pps : 0.0;
  std::printf(
      "\nk5 sampled fast path: %.2fx wall-pps over the unsampled matched "
      "baseline (k5-swap)\n",
      sampled_speedup);

  json += "\n],\"sampled_speedup_vs_unsampled\":" +
          std::to_string(sampled_speedup);
  json += ",\"verdict\":\"";
  json += all_ok ? "pass" : "fail";
  json += "\"}";

  const char* out_path = std::getenv("NETCO_SOAK_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_soak.json";
  // Regenerating the base summary must not clobber the sections the
  // datacenter and workload benches appended to the same file.
  netco::bench::write_bench_base(out_path, json);
  std::printf("\nSummary written to %s\n", out_path);

  std::printf("\nSoak verdict: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
