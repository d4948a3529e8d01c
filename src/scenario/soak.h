// Long-running soak of the combiner under a deterministic FaultPlan.
//
// run_soak() drives a UDP stream through a fresh Fig. 3 combiner while a
// FaultInjector executes the plan, the QuorumTraceChecker validates every
// release against the trace stream, and periodic CompareCore::audit()
// snapshots validate the cache bookkeeping. Because faults, traffic, and
// audits all run through the one seeded simulator, a soak is exactly as
// bit-reproducible as a clean run: same seed → identical trace stream
// hash and identical metrics snapshot. bench/soak_netco.cpp runs this at
// ~10^6 packets per configuration; tests/soak_smoke_test.cpp runs a
// 2-second slice of it as a tier-1 test.
#pragma once

#include <cstdint>
#include <string>

#include "faultinject/fault_plan.h"
#include "faultinject/invariants.h"
#include "health/monitor.h"
#include "netco/compare_core.h"
#include "resilience/resilience.h"
#include "scenario/scenarios.h"
#include "workload/config.h"

namespace netco::scenario {

/// Soak parameters.
struct SoakOptions {
  /// UDP payload bytes per datagram of the single-stream sender. Named
  /// like a field: harnesses read it as options.payload_bytes.
  static constexpr std::size_t payload_bytes = 200;

  int k = 3;
  core::ReleasePolicy policy = core::ReleasePolicy::kMajority;
  std::uint64_t seed = 1;
  /// Stop the sender once this many datagrams have been offered. Each is
  /// multiplied k-fold at the hub, so compare ingests ≈ k × packets.
  std::uint64_t packets = 100'000;
  /// Offered rate. Small packets keep the compare busy; the default sits
  /// below the c_program compare's ~80k packet-in/s capacity at k=3 so
  /// that faults, not steady-state overload, drive the dynamics (the
  /// bench lowers it further for k=5).
  DataRate rate = DataRate::megabits_per_sec(16);
  /// Fault schedule. Empty → a default FaultPlan::random(seed) sized to
  /// the expected run length (unless inject_default_faults is false).
  faultinject::FaultPlan plan;
  /// false + an empty plan = a fault-free run — the baseline the recovery
  /// scenarios compare their post-quarantine goodput against.
  bool inject_default_faults = true;
  /// Replica-health loop configuration (disabled by default — a soak with
  /// health off is bit-identical to one built before the subsystem).
  health::HealthConfig health;
  /// Trusted-component resilience (disabled by default, same guarantee).
  /// Enabling it also turns on the checker's duplicate-egress invariant
  /// and, when the default fault plan is used, adds one compare crash.
  resilience::ResilienceConfig resilience;
  /// Sampled-verification fast path (§XII; disabled by default, same
  /// bit-identity guarantee). Enabling it also arms the checker's
  /// duplicate-egress invariant — the fast path must never double-release.
  /// Mutually exclusive with resilience.enabled: fast-path releases happen
  /// synchronously at the edge, invisible to a warm standby's suppression
  /// window, so the combination would break at-most-once egress.
  core::CompareSampling sampling;
  /// Flow-level workload engine (src/workload). When enabled, the circuit
  /// replaces the single iperf-like UDP stream with a population of
  /// sessions (Poisson arrivals, Pareto flow sizes, scenario-shaped rate)
  /// driven off a hierarchical timer wheel; `packets` and `rate` are then
  /// ignored and the run length is workload.duration plus the drain.
  workload::WorkloadConfig workload;
  /// Feed the invariant checker only the protocol-relevant records
  /// (compare.*, health.*, resilience.*), skipping the forwarding
  /// narration (replica.forward, link.*). Every invariant still checks —
  /// the checker never reads the dropped record kinds — but stream_hash
  /// then covers the protocol stream only. perfbench's soak-k5-sampled
  /// workload sets it.
  bool protocol_trace_only = false;
};

/// Everything a soak run produces.
struct SoakResult {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t delivered_unique = 0;
  /// The circuit's compare.ingested counter less the standby's mirrored
  /// copies: the primary's ingests, those before a warm restart included.
  std::uint64_t compare_ingested = 0;
  /// The circuit's compare.released counter: every core's releases, a
  /// promoted standby's and those before a warm restart included.
  std::uint64_t compare_released = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t fault_events_applied = 0;
  std::uint64_t audits = 0;
  double throughput_pps = 0.0;  ///< offered datagrams / sim second
  /// Wall-clock cost of the run: how fast the *simulator* chews through
  /// the workload. Not deterministic (excluded from the double-run
  /// comparison); this is the hot-path number perf PRs move.
  double wall_seconds = 0.0;
  double wall_pps = 0.0;  ///< offered datagrams / wall second
  /// Verdict latency percentiles (µs) from "compare.verdict_latency_us".
  double verdict_p50_us = 0.0;
  double verdict_p95_us = 0.0;
  double verdict_p99_us = 0.0;
  /// Goodput over the tail of the send phase (the last quarter of the
  /// packet budget): delivered/offered once the fault plan's recoveries —
  /// and any health-loop quarantines — have settled. The recovery
  /// acceptance bar compares this against a fault-free baseline.
  double tail_goodput_ratio = 0.0;
  /// Health-loop outcome (all zero / -1 when the loop is disabled).
  std::uint64_t health_quarantines = 0;
  std::uint64_t health_readmits = 0;
  std::uint64_t health_bans = 0;
  std::uint64_t health_probe_windows = 0;
  std::int64_t first_quarantine_ns = -1;  ///< sim-time, -1 = never
  std::int64_t first_readmit_ns = -1;
  /// Resilience outcome (all zero / -1 while the subsystem is disabled).
  std::uint64_t resilience_checkpoints = 0;
  std::uint64_t resilience_failovers = 0;
  std::uint64_t resilience_degraded_entries = 0;
  std::int64_t time_to_failover_ns = -1;  ///< -1 = no failover happened
  std::uint64_t gap_loss = 0;             ///< quorums nobody emitted
  std::uint64_t duplicate_egress = 0;     ///< trace-checker duplicates
  std::uint64_t downtime_drops = 0;       ///< packet-ins the dead process ate
  std::uint64_t suppressed_recovered = 0; ///< post-restart taint suppressions
  /// Sampled-verification outcome (zero while sampling is disabled).
  std::uint64_t fastpath_released = 0;
  std::uint64_t sampled_escalated = 0;
  /// Order-independent digest of the released-packet multiset per wire —
  /// equal across a sampled and a full-verify run that delivered the same
  /// packets, even though their trace streams (and stream_hash) differ.
  std::uint64_t egress_set_hash = 0;
  /// Detection-latency telemetry: sim-time of the plan's first byzantine
  /// behaviour swap, and the first quarantine's lag behind it (-1 = no
  /// swap in the plan / quarantine never happened / happened before it).
  std::int64_t first_swap_ns = -1;
  std::int64_t time_to_quarantine_ns = -1;
  /// Workload-engine outcome (all zero while SoakOptions::workload is
  /// disabled). Offered/delivered mirror datagrams_sent/delivered_unique;
  /// the extra fields are the flow-level story a single stream lacks.
  std::uint64_t wl_sessions_started = 0;
  std::uint64_t wl_sessions_finished = 0;
  std::uint64_t wl_flows_completed = 0;
  std::uint64_t wl_flows_aborted = 0;
  std::uint64_t wl_pool_exhausted = 0;
  std::uint64_t wl_pool_peak_live = 0;
  std::uint64_t wl_timer_scheduled = 0;
  std::uint64_t wl_timer_fired = 0;
  std::uint64_t wl_ddos_emitted = 0;
  /// Flow-completion-time percentiles (ms) from "workload.fct_ms".
  double wl_fct_p50_ms = 0.0;
  double wl_fct_p95_ms = 0.0;
  double wl_fct_p99_ms = 0.0;
  /// Merged verdict of the trace checker and every cache audit.
  faultinject::InvariantReport invariants;
  /// FNV-1a over the canonical trace stream (determinism fingerprint).
  std::uint64_t stream_hash = 0;
  /// Canonical snapshot of the run's metrics registry at its end.
  std::string metrics_json;

  [[nodiscard]] bool ok() const noexcept { return invariants.ok(); }
};

/// Runs one soak on the calling thread (run_circuit() of
/// scenario/circuit.h), in an observability context of its own: the
/// snapshot in the result belongs to this run alone, and the caller's
/// registry is left as it was.
SoakResult run_soak(const SoakOptions& options);

}  // namespace netco::scenario
