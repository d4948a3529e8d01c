// Static-failover harness: every host of a k-ary fat-tree streams UDP to
// its counterpart in the next pod (all flows inter-pod, so every flow
// crosses the core and — with the combiner at the protected position —
// transits it both up out of its pod and down into it), while a
// correlated multi-failure plan (faultinject::make_kill_plan) cuts links
// and kills switches at one instant. The compiled backup layer
// (failover::compile_failover) is the only thing allowed to react: there
// is no controller attached to the fabric, so a miss is a drop, and
// `controller_packet_ins` staying zero is part of the "absorbed by static
// rules alone" verdict.
//
// Goodput is attributed to windows analytically by *send* time (flow
// start + seq·period), so a window's ratio compares packets launched in
// that window against the subset that ever arrived — the dip and the
// reroute latency fall out of the per-window ledger without timestamping
// individual deliveries.
//
// Determinism contract matches the soak and convergence harnesses: one
// circuit per Simulator, every trace record folded into a
// QuorumTraceChecker stream hash, identical hashes for same-seed runs —
// solo (run_failover) or as a fleet on a ShardedSimulator
// (run_failover_fleet), for any shard count.
#pragma once

#include <cstdint>

#include "faultinject/fabric_injector.h"
#include "faultinject/fault_plan.h"
#include "scenario/circuit.h"
#include "sim/time.h"
#include "topo/fattree.h"

namespace netco::scenario {

/// Parameters of one static-failover run. The fabric is a fat-tree whose
/// aggregation position (0,0) — the §VI attack position, on every primary
/// path into and out of pod 0 — is a k = 3 NetCo combiner. Port deaths
/// are detected resilience::kSwitchKeepalive after the failure.
struct FailoverOptions {
  /// Fat-tree radix.
  static constexpr int kRadix = 4;
  /// When a synthesized kill plan fires.
  static constexpr sim::Duration kFailAt = sim::Duration::milliseconds(200);

  std::uint64_t seed = 1;

  /// Ablation switch: false skips compile_failover(), leaving only the
  /// unguarded primary routes — the control a failure must NOT survive.
  bool compile_backup_rules = true;

  /// Explicit fault schedule; when empty and link_cuts + switch_kills > 0,
  /// a correlated kill plan is synthesized (all failures at kFailAt).
  faultinject::FaultPlan plan;
  int link_cuts = 0;
  int switch_kills = 0;
  faultinject::KillTarget target = faultinject::KillTarget::kAny;

  sim::Duration horizon = sim::Duration::milliseconds(500);
};

/// Outcome of one run.
struct FailoverResult {
  std::uint64_t data_sent = 0;
  std::uint64_t data_delivered = 0;  ///< unique (flow, seq) pairs received
  double goodput_overall = 0.0;
  /// Worst per-window delivery ratio at or after the failure instant
  /// (1.0 when the plan was empty or nothing dipped).
  double goodput_dip = 1.0;
  /// End of the last lossy window minus the failure instant: how long
  /// traffic bled before the static layer carried everything again.
  /// 0 = no window ever lost a packet; -1 = never recovered.
  std::int64_t reroute_latency_ns = 0;
  /// Loss stopped before the data ended (a trailing clean window exists).
  bool recovered = false;
  /// recovered AND zero invariant violations, duplicate egresses, and
  /// controller packet-ins — the "static rules alone" verdict.
  bool absorbed = false;

  // Fabric-switch totals (the wrapped combiner position not included).
  std::uint64_t static_backup_hits = 0;  ///< hits on kFailoverCookie rules
  std::uint64_t failover_reroutes = 0;   ///< lookups that skipped a dead rule
  std::uint64_t dropped_no_rule = 0;
  std::uint64_t controller_packet_ins = 0;

  std::size_t backup_rules_installed = 0;  ///< 0 in the ablation run
  std::size_t primaries_guarded = 0;
  std::uint64_t fault_events = 0;  ///< fabric events actually applied

  std::uint64_t checker_reroutes = 0;  ///< failover.reroute records seen
  std::uint64_t duplicates = 0;        ///< duplicate egress / reroute loops
  std::uint64_t invariant_violations = 0;
  /// FNV-1a over every trace record — the determinism fingerprint.
  std::uint64_t stream_hash = 0;
};

/// Runs one circuit on the calling thread (run_circuit() of
/// scenario/circuit.h), in an observability context of its own: the
/// caller's registry is left as it was. Same seed + options ⇒ same
/// FailoverResult, including stream_hash.
FailoverResult run_failover(const FailoverOptions& options);

/// A fleet of independent circuits on a ShardedSimulator (run_fleet() of
/// scenario/circuit.h). Circuit 0 runs base.seed exactly; circuit i > 0
/// runs hash_mix(base.seed, i). The merged hash and metrics snapshot are
/// shard-count invariant.
FleetResult<FailoverResult> run_failover_fleet(const FailoverOptions& base,
                                               std::size_t circuits,
                                               int shards);

}  // namespace netco::scenario
