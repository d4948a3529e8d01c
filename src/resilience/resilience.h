// Resilience of the *trusted* components (compare process, hub rules).
//
// The paper's argument rests on a small trusted base: hubs ("stateless,
// realizable in the datapath") and the compare element. Trusted does not
// mean immortal — this subsystem makes the combiner survive crashes of
// exactly those components:
//
//  * Compare crash-recovery: ResilienceManager checkpoints every edge's
//    CompareCore periodically (an in-memory CompareSnapshot per edge) and
//    warm-restarts a crashed process from the last checkpoint. Restored
//    unreleased entries are tainted (CompareCore::restore) so recovery
//    never double-releases: the at-most-once guarantee costs bounded gap
//    loss, never a duplicate.
//  * Warm standby failover: StandbyCompare shadows the primary — per-edge
//    shadow cores fed from the edge ingress tap, reaching the same
//    quorums but withholding every release. A heartbeat watchdog (missed
//    beats with exponential backoff, so a single stall is not escalated
//    at full rate) declares the primary dead; promotion fences the
//    primary (ProcessState::kRetired — even a false-positive failover
//    cannot split-brain into duplicate egress) and flips the shadows
//    live. Entries the standby already shadow-released stay suppressed.
//  * Degraded-mode policies when no standby exists and the compare dies:
//      - kFailClosed (default, inert): packets keep punting to the dead
//        process and drop — availability sacrificed for safety;
//      - kFailOpenSingle: after a rewire latency, one *designated*
//        replica's traffic bypasses the compare straight to the neighbor
//        (alarm raised — all §II protection is off for that path);
//      - kFailStatic: pre-installed low-priority pass-through rules are
//        exposed by removing the punt rule after a keepalive delay (the
//        OpenFlow fail-standalone analog).
//  * Hub crash: the fan-out rule is removed (hub_crash) and reinstalled
//    on restart — the hub is stateless, so restart is rewire plus
//    counter continuity (the registry counters never reset).
//
// Everything runs through the seeded simulator: failover timing, gap
// loss, and duplicate counts are bit-reproducible per seed.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netco/combiner.h"
#include "netco/compare_core.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace netco::resilience {

/// What the combiner does while no compare process is live and no standby
/// can take over.
enum class DegradedPolicy : std::uint8_t {
  kFailClosed,      ///< drop everything (safe, unavailable) — the default
  kFailOpenSingle,  ///< pass one designated replica through, with alarm
  kFailStatic,      ///< expose pre-installed static failover rules
};

[[nodiscard]] const char* to_string(DegradedPolicy policy) noexcept;

/// Resilience configuration. The default (`enabled = false`) is inert: a
/// soak with resilience off is bit-identical to one built before the
/// subsystem existed.
struct ResilienceConfig {
  bool enabled = false;
  /// Run a warm standby compare (shadow cores + promotion on failover).
  bool standby = false;
  /// Heartbeat probe spacing while the primary responds.
  sim::Duration heartbeat_period = sim::Duration::milliseconds(5);
  /// Consecutive missed beats before the primary is declared dead.
  int heartbeat_miss_threshold = 3;
  /// Probe-spacing multiplier applied per consecutive miss — the
  /// false-positive guard: a briefly stalled process gets progressively
  /// more slack before the declare-dead threshold is reached.
  double backoff_factor = 2.0;
  /// Degraded-mode policy when no standby exists. kFailOpenSingle and
  /// kFailStatic pass replica 0 through.
  DegradedPolicy policy = DegradedPolicy::kFailClosed;
};

/// How long a switch waits for its controller, or for a dead port's
/// keepalive, before it acts alone: kFailStatic falls back to the static
/// rules after it (OpenFlow fail-standalone analog), and the fabric
/// injector marks a cut link's ports dead after it
/// (faultinject/fabric_injector.h).
inline constexpr sim::Duration kSwitchKeepalive =
    sim::Duration::milliseconds(10);

/// End-of-run resilience counters (all sim-deterministic).
struct ResilienceSummary {
  std::uint64_t checkpoints = 0;        ///< checkpoint rounds taken
  std::uint64_t failovers = 0;          ///< standby promotions
  std::uint64_t degraded_entries = 0;   ///< times degraded mode was entered
  /// Declared-outage start → standby live (-1 = no failover happened).
  std::int64_t time_to_failover_ns = -1;
  /// Quorums reached during the outage window that nobody emitted — the
  /// bounded loss the at-most-once guarantee costs.
  std::uint64_t gap_loss = 0;
  /// Packet-ins the dead/fenced process dropped.
  std::uint64_t downtime_drops = 0;
  /// Post-restart quorums suppressed on checkpoint-recovered entries.
  std::uint64_t suppressed_recovered = 0;
};

/// The warm standby: one shadow CompareCore per edge, fed from the edge's
/// ingress tap (the mirror port), judging the same quorums as the primary
/// but withholding every release until promote().
///
/// Owns the edges' ingress taps while alive; destroy it only after the
/// simulation stops running (scheduled mirror deliveries capture `this`).
class StandbyCompare {
 public:
  StandbyCompare(sim::Simulator& simulator, core::CombinerInstance& combiner);
  ~StandbyCompare();

  StandbyCompare(const StandbyCompare&) = delete;
  StandbyCompare& operator=(const StandbyCompare&) = delete;

  /// Flips every shadow core live. From here on, quorums release via the
  /// edge's packet-out path (OFPP_TABLE), exactly like the primary did.
  void promote();
  [[nodiscard]] bool promoted() const noexcept { return promoted_; }

  /// Sum of shadow-suppressed releases across edges (gap-loss accounting).
  [[nodiscard]] std::uint64_t shadow_releases() const noexcept;

  /// The shadow core for edge `i` (tests/diagnostics).
  [[nodiscard]] core::CompareCore* core_for(std::size_t edge_idx) noexcept;

 private:
  struct EdgeShadow {
    core::CompareCore core;
    openflow::OpenFlowSwitch* edge = nullptr;
    std::unordered_map<device::PortIndex, int> replica_ports;
    explicit EdgeShadow(const core::CompareConfig& cfg) : core(cfg) {}
  };

  void on_ingress(std::size_t edge_idx, device::PortIndex in_port,
                  const net::Packet& packet);
  void deliver(std::size_t edge_idx, int replica, net::Packet packet);
  void schedule_sweep(std::size_t edge_idx);

  sim::Simulator& simulator_;
  core::CombinerInstance& combiner_;
  bool promoted_ = false;
  std::vector<std::unique_ptr<EdgeShadow>> shadows_;
};

/// Orchestrates checkpoints, the heartbeat watchdog, failover / warm
/// restart, degraded-mode policies, and hub crash/restart. One instance
/// per combiner; construct after the topology, destroy after the last
/// simulator run (scheduled timers capture `this`).
class ResilienceManager {
 public:
  ResilienceManager(sim::Simulator& simulator,
                    core::CombinerInstance& combiner, ResilienceConfig config);

  ResilienceManager(const ResilienceManager&) = delete;
  ResilienceManager& operator=(const ResilienceManager&) = delete;

  // --- fault entry points (FaultInjector delegates here) ---------------
  /// Kills the compare process; its in-memory state is lost. With
  /// `recover_after` > 0 a warm restart from the last checkpoint is
  /// scheduled (ignored if a failover wins the race — the old primary
  /// stays fenced). Zero = down until failover or forever.
  void compare_crash(sim::Duration recover_after);
  /// Wedges the process (heartbeats stop, memory intact). Un-hanging
  /// resumes in place — no restore needed.
  void compare_hang(sim::Duration recover_after);
  /// Removes edge `edge_idx`'s fan-out rule; restart reinstalls it.
  void hub_crash(int edge_idx, sim::Duration recover_after);
  /// Suppresses heartbeat *observation* while the primary stays live — a
  /// monitoring-path partition. Exercises the false-positive guard: if a
  /// failover fires anyway, fencing keeps egress duplicate-free.
  void heartbeat_loss(sim::Duration duration);

  /// The standby (nullptr unless config.standby).
  [[nodiscard]] StandbyCompare* standby() noexcept { return standby_.get(); }

  [[nodiscard]] ResilienceSummary summary() const;

  [[nodiscard]] const ResilienceConfig& config() const noexcept {
    return config_;
  }

 private:
  void take_checkpoint();
  void checkpoint_tick();
  void heartbeat_tick();
  void on_declared_dead();
  void do_promote();
  void restart_primary();
  void enter_degraded();
  void exit_degraded();
  void begin_outage();
  void trace(obs::TraceEvent event, int replica, std::uint64_t count);

  sim::Simulator& simulator_;
  core::CombinerInstance& combiner_;
  ResilienceConfig config_;
  std::unique_ptr<StandbyCompare> standby_;

  /// Latest checkpoint per edge.
  std::vector<core::CompareSnapshot> checkpoints_;

  // Watchdog state.
  bool monitoring_ = true;   ///< false after failover: nothing left to watch
  bool heartbeat_suppressed_ = false;
  int misses_ = 0;
  bool dead_declared_ = false;

  // Outage window bookkeeping (gap loss + time-to-failover).
  bool outage_open_ = false;
  std::int64_t outage_start_ns_ = 0;
  std::uint64_t shadow_mark_ = 0;  ///< standby shadow_releases at outage start

  // Degraded mode.
  bool degraded_ = false;
  std::uint64_t degraded_epoch_ = 0;  ///< guards scheduled activations

  std::int64_t time_to_failover_ns_ = -1;
  std::uint64_t gap_loss_ = 0;

  obs::Observability* obs_;
  obs::Counter* checkpoint_counter_;   ///< "resilience.checkpoints"
  obs::Counter* failover_counter_;     ///< "resilience.failovers"
  obs::Counter* miss_counter_;         ///< "resilience.heartbeat_misses"
  obs::Counter* degraded_counter_;     ///< "resilience.degraded_entries"
};

}  // namespace netco::resilience
