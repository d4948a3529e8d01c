// QuarantineManager + HealthService: actuation for the health loop.
//
// QuarantineManager turns HealthActions into circuit reconfiguration on a
// built CombinerInstance:
//
//  * quarantine — the edge fan-out rule (the priority-30 "hub" rule that
//    multiplies upstream packets toward every replica) is re-installed
//    with the replica's ports removed (FlowTable::add replaces an entry
//    with an equal match at the same priority, so this is an atomic rule
//    rewrite, not an add/remove race), and every edge compare core drops
//    the replica from its live set — the adaptive quorum shrinks to a
//    majority over the remaining live replicas, falling back to
//    first-copy detection mode at 2;
//
//  * probation probes — while anything is quarantined, every 20 ms the
//    fan-out opens to quarantined (not banned) replicas for 4 ms: a
//    sampled trickle whose copies the compare still
//    scores (live=false verdicts) but never counts toward quorums;
//
//  * readmit / ban — the inverse rewrite, or the permanent one.
//
// HealthService is the glue: it implements core::VerdictSink, installs
// itself on every edge core of the combiner, feeds the HealthMonitor, and
// actuates whatever the monitor decides — emitting health.quarantine /
// health.readmit / health.ban trace records and health.* metrics as it
// goes. Everything runs inside the simulator's event order, so the loop
// is exactly as seed-deterministic as the traffic it watches.
#pragma once

#include <cstdint>
#include <memory>

#include "health/monitor.h"
#include "netco/combiner.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace netco::health {

/// Reconfigures a CombinerInstance's fan-out and live sets (see file
/// comment). Dumb by design: it applies whatever it is told and keeps no
/// scoring state of its own.
class QuarantineManager {
 public:
  QuarantineManager(sim::Simulator& simulator,
                    core::CombinerInstance& combiner);

  void quarantine(int replica);
  void readmit(int replica);
  void ban(int replica);

  [[nodiscard]] bool quarantined(int replica) const noexcept {
    return (quarantined_mask_ & bit(replica)) != 0;
  }
  /// Probation windows opened so far.
  [[nodiscard]] std::uint64_t probe_windows() const noexcept {
    return probe_windows_;
  }

 private:
  [[nodiscard]] static std::uint64_t bit(int replica) noexcept {
    return 1ULL << static_cast<unsigned>(replica);
  }
  /// Re-installs every edge's fan-out rule for the current masks;
  /// probe_open additionally includes quarantined (not banned) replicas.
  void install_fanout(bool probe_open);
  void set_live(int replica, bool live);
  void arm_probe_cycle();
  void open_probe_window();

  sim::Simulator& simulator_;
  core::CombinerInstance& combiner_;
  std::uint64_t quarantined_mask_ = 0;  ///< includes banned replicas
  std::uint64_t banned_mask_ = 0;
  bool cycle_armed_ = false;
  std::uint64_t probe_windows_ = 0;
};

/// End-of-run health outcome (bench/soak reporting).
struct HealthSummary {
  std::uint64_t quarantines = 0;
  std::uint64_t readmits = 0;
  std::uint64_t bans = 0;
  std::uint64_t probe_windows = 0;
  /// Sim-time of the first quarantine/readmit, -1 when none happened.
  std::int64_t first_quarantine_ns = -1;
  std::int64_t first_readmit_ns = -1;
};

/// The wired-up loop: verdict stream → monitor → manager (+ obs).
class HealthService final : public core::VerdictSink {
 public:
  /// Installs itself as the verdict sink of every edge core in `combiner`
  /// (which must have a compare: not EdgeMode::kDup). The service must
  /// outlive neither the combiner nor the simulator; the destructor
  /// un-installs the sinks.
  HealthService(sim::Simulator& simulator, core::CombinerInstance& combiner,
                const HealthConfig& config);
  ~HealthService() override;

  HealthService(const HealthService&) = delete;
  HealthService& operator=(const HealthService&) = delete;

  void on_verdict(const core::ReplicaVerdict& verdict) override;

  [[nodiscard]] const QuarantineManager& manager() const noexcept {
    return manager_;
  }
  [[nodiscard]] HealthSummary summary() const noexcept;

 private:
  void apply(const HealthAction& action);
  /// Exports the replica's current reputation weight to every edge compare
  /// core (and any registered shadow core) — the fast path's vote weights
  /// track the monitor's EWMA in lockstep (§XII).
  void push_weight(int replica);

  sim::Simulator& simulator_;
  core::CombinerInstance& combiner_;
  /// Edge compare cores, resolved once — push_weight runs per verdict and
  /// must not re-hash edge names on the hot path. (Shadow cores register
  /// after construction and are iterated live from the combiner.)
  std::vector<core::CompareCore*> edge_cores_;
  HealthMonitor monitor_;
  QuarantineManager manager_;
  obs::Observability* obs_;
  obs::Counter* verdict_counter_;     ///< "health.verdicts"
  obs::Counter* quarantine_counter_;  ///< "health.quarantines"
  obs::Counter* readmit_counter_;     ///< "health.readmits"
  obs::Counter* ban_counter_;         ///< "health.bans"
  std::int64_t first_quarantine_ns_ = -1;
  std::int64_t first_readmit_ns_ = -1;
};

}  // namespace netco::health
