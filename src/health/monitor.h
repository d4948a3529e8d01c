// HealthMonitor: windowed EWMA deviation scoring over the compare's
// per-replica verdict stream, with hysteresis (tentpole of the health
// subsystem — closing the loop the paper leaves to "the network
// administrator").
//
// The monitor is pure logic, like CompareCore: it consumes ReplicaVerdict
// records (whatever edge they formed on — evidence about one replica from
// every edge folds into one score) and produces HealthActions. It never
// touches the network; QuarantineManager (service.h) actuates.
//
// State machine per replica:
//
//            score ≥ kQuarantineThreshold             probe matches +
//            (after ≥ min_verdicts, while              score decays
//             more than min_live stay live)          ≤ kReadmitThreshold
//   kLive ──────────────────────────────▶ kQuarantined ─────────▶ kLive
//     │                                        │
//     │   max_quarantines prior round-trips    │ (stays quarantined while
//     └──────────────▶ kBanned ◀───────────────┘  probes keep failing)
//
// Scoring: matched verdicts pull the EWMA toward 0, missed/divergent
// verdicts push it toward their weights; the two already-thresholded
// signals (flood-flagged, inactive) saturate the score to 1.0 outright —
// the compare's own windowed monitors did the averaging. Hysteresis comes
// from the gap between the quarantine and readmit thresholds plus the
// consecutive-probe-match requirement, so a replica oscillating near one
// threshold cannot flap the circuit.
//
// Determinism: scores are plain double arithmetic over an order-fixed
// verdict stream, and every decision is stamped with the verdict's
// sim-time — same seed, same actions, bit-identical traces.
#pragma once

#include <cstdint>
#include <vector>

#include "netco/verdict.h"
#include "sim/time.h"

namespace netco::health {

/// Where a replica stands with the health loop.
enum class ReplicaState : std::uint8_t {
  kLive,         ///< fanned out to, votes toward quorums
  kQuarantined,  ///< masked out; receives the probation probe trickle
  kBanned,       ///< permanently out (exhausted max_quarantines)
};

[[nodiscard]] const char* to_string(ReplicaState state) noexcept;

/// Tuning for the whole health subsystem (monitor + quarantine manager).
struct HealthConfig {
  /// Master switch: disabled (the default) wires nothing — existing
  /// deployments stay bit-identical.
  bool enabled = false;

  /// Score at/above which a live replica is quarantined.
  static constexpr double kQuarantineThreshold = 0.6;
  /// Score at/below which a quarantined replica may be readmitted.
  static constexpr double kReadmitThreshold = 0.2;

  /// Verdicts a replica must accumulate before the quarantine threshold is
  /// consulted — a cold-start guard so one early wild verdict cannot
  /// quarantine a healthy replica. The saturating signals (flood-flagged,
  /// inactive) bypass the guard: the compare already windowed them.
  std::uint64_t min_verdicts = 16;

  /// Consecutive matched probe copies required (on top of the score
  /// condition) before a quarantined replica is readmitted.
  std::uint64_t readmit_probe_matches = 12;
  /// Quarantine round-trips before the next quarantine becomes a ban.
  int max_quarantines = 3;
  /// Never quarantine below this many live replicas — an entirely masked
  /// circuit would be a self-inflicted outage worse than the fault.
  int min_live = 2;
};

/// One decision the monitor wants actuated.
struct HealthAction {
  enum class Kind : std::uint8_t { kQuarantine, kReadmit, kBan };
  Kind kind = Kind::kQuarantine;
  int replica = 0;
  double score = 0.0;   ///< score at decision time (for traces/logs)
  sim::TimePoint at;    ///< sim-time of the verdict that tipped it
};

[[nodiscard]] const char* to_string(HealthAction::Kind kind) noexcept;

/// Per-replica monitor state (inspectable for tests/reports).
struct ReplicaHealth {
  ReplicaState state = ReplicaState::kLive;
  double score = 0.0;
  std::uint64_t verdicts = 0;       ///< verdicts scored while live
  std::uint64_t probe_matches = 0;  ///< consecutive matches while quarantined
  int quarantines = 0;              ///< round-trips so far
  sim::TimePoint last_transition;
};

/// The scoring state machine (see file comment).
class HealthMonitor {
 public:
  HealthMonitor(const HealthConfig& config, int k);

  /// Folds one verdict into the replica's score and, when a threshold is
  /// crossed, queues a HealthAction. Verdicts about banned replicas are
  /// ignored; verdicts with an out-of-range replica index are dropped.
  void on_verdict(const core::ReplicaVerdict& verdict);

  /// Drains the queued actions (ordered as decided).
  [[nodiscard]] std::vector<HealthAction> take_actions();

  [[nodiscard]] const ReplicaHealth& replica(int index) const {
    return replicas_[static_cast<std::size_t>(index)];
  }
  /// Replicas currently in kLive.
  [[nodiscard]] int live_replicas() const noexcept;

  /// Reputation weight exported to the compare fast path (§XII): a live
  /// replica weighs 1 - score (clamped to [0,1], so 1 = pristine); a
  /// quarantined or banned replica weighs 0 — it must never release a
  /// packet on first-copy trust.
  [[nodiscard]] double weight(int index) const noexcept;

  [[nodiscard]] const HealthConfig& config() const noexcept { return config_; }

 private:
  HealthConfig config_;
  std::vector<ReplicaHealth> replicas_;
  std::vector<HealthAction> pending_;
};

}  // namespace netco::health
