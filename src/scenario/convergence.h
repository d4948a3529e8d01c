// Routing-convergence harness: a diamond of four legacy routers running
// the RIP-v2 control plane (src/routing), with the RA—RB backbone hop
// passing through either a NetCo combiner circuit or a single unprotected
// switch — the "router position" under evaluation.
//
//            hA — RA ===[ P ]=== RB — hB        P = combiner | 1 switch
//                  \             /
//                   RC ------- RD                (honest detour path)
//
// RIP announcements are plain UDP datagrams, so they replicate through
// the combiner exactly like data traffic: a lying replica inside P
// (route poisoning, metric inflation, blackhole advertisements —
// src/adversary control-plane behaviours, injected via FaultPlan events)
// rewrites its copy of every announcement, and the compare element's
// majority quorum decides whether the lie ever reaches RA/RB. The
// harness measures what the paper's reliability claim means for a
// *control* plane: time to converge to the correct tables, and goodput
// of an hA→hB data flow while convergence is under attack.
//
// Determinism contract matches the soak: one circuit per Simulator, all
// trace records folded into a QuorumTraceChecker stream hash, identical
// hashes for same-seed runs — solo (run_convergence) or as a fleet on a
// ShardedSimulator (run_convergence_fleet), for any shard count.
#pragma once

#include <cstdint>

#include "scenario/circuit.h"
#include "sim/time.h"

namespace netco::scenario {

/// Which control-plane lie the liars tell (FaultPlan kinds routing.*).
enum class RoutingAttack : std::uint8_t {
  kNone,       ///< benign run
  kPoison,     ///< false low metrics: every advertised metric → 0
  kInflate,    ///< every advertised metric + 8 (clamped to 16)
  kBlackhole,  ///< poisoned announcements + attracted data dropped
};

[[nodiscard]] const char* to_string(RoutingAttack attack) noexcept;

/// Parameters of one convergence run. The four speakers run the default
/// RipConfig timing, the liars switch on at t = 0, the tables are checked
/// every 50 ms, and hA sends hB one probe datagram every 5 ms until
/// shortly before the horizon.
struct ConvergenceOptions {
  std::uint64_t seed = 1;

  /// true → P is a k = 3 combiner circuit; false → one plain switch.
  bool use_combiner = true;

  /// Lying replicas inside P (combiner mode: replicas 0..liars-1;
  /// unprotected mode: any value > 0 corrupts the single switch). Each
  /// liar gets one routing.* event of the attack's kind.
  int liars = 0;
  RoutingAttack attack = RoutingAttack::kInflate;

  sim::Duration horizon = sim::Duration::seconds(3);
};

/// Outcome of one run.
struct ConvergenceResult {
  /// All four tables match the benign ground truth at the horizon, and
  /// kept matching from convergence_ns on.
  bool converged_correct = false;
  /// End of the first window after the last table mismatch (-1 = never
  /// converged to the correct tables).
  std::int64_t convergence_ns = -1;

  std::uint64_t data_sent = 0;
  std::uint64_t data_delivered = 0;  ///< unique probe sequences at hB
  /// delivered/sent at the convergence boundary (overall ratio when the
  /// run never converged) — the cost of the convergence transient.
  double goodput_during_convergence = 0.0;
  double goodput_overall = 0.0;
  /// Data packets swallowed by blackhole liars.
  std::uint64_t data_dropped_by_liars = 0;

  // Control-plane totals over the four speakers.
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t route_changes = 0;
  std::uint64_t routes_timed_out = 0;

  std::uint64_t fault_events_applied = 0;
  /// Protocol-invariant violations seen by the trace checker.
  std::uint64_t invariant_violations = 0;
  /// FNV-1a over every trace record — the determinism fingerprint.
  std::uint64_t stream_hash = 0;
};

/// Runs one circuit on the calling thread (run_circuit() of
/// scenario/circuit.h), in an observability context of its own: the
/// caller's registry is left as it was. Same seed + options ⇒ same
/// ConvergenceResult, including stream_hash.
ConvergenceResult run_convergence(const ConvergenceOptions& options);

/// A fleet of independent circuits on a ShardedSimulator (run_fleet() of
/// scenario/circuit.h). Circuit 0 runs base.seed exactly; circuit i > 0
/// runs hash_mix(base.seed, i). The merged hash and metrics snapshot are
/// shard-count invariant.
FleetResult<ConvergenceResult> run_convergence_fleet(
    const ConvergenceOptions& base, std::size_t circuits, int shards);

}  // namespace netco::scenario
