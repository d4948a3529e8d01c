// CompareService: the compare element deployed as an out-of-band process,
// attached to the trusted edge switches "akin of an OpenFlow controller,
// using packet-in and packet-out messages" (§IV).
//
// The same service class models both the paper's fast compare (a C program
// on a dedicated host, h3 — run it on a Controller with the c_program()
// cost profile) and the slow reference implementation (POX3 — run it with
// the pox() profile). Per edge switch it keeps an isolated CompareCore;
// replica identity is derived from the packet-in ingress port.
//
// Operational behaviours:
//  * released packets return via packet-out with an OFPP_TABLE action, so
//    the trusted edge forwards them "based on the switch's MAC table";
//  * a flood-flagged replica port gets a port-mod block (optionally
//    time-limited), the §IV case-2 advice;
//  * inactivity alarms are recorded for the administrator (case 3);
//  * cache-cleanup work is billed to the controller CPU via charge_extra,
//    which is what makes small-packet floods raise jitter (§V-B).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "controller/controller.h"
#include "netco/compare_core.h"

namespace netco::core {

/// A recorded administrator notification.
struct CompareAlarm {
  enum class Kind : std::uint8_t { kPortBlocked, kReplicaInactive };
  std::string edge;  ///< edge switch name
  int replica = 0;
  Kind kind = Kind::kPortBlocked;
  sim::TimePoint at;
};

/// The out-of-band compare process.
class CompareService : public controller::App {
 public:
  /// Liveness of the compare *process* (one process serves every edge, as
  /// in the paper's single h3 deployment). Crash-recovery (src/resilience)
  /// drives the transitions; the default is kLive.
  ///  * kCrashed — process dead, in-memory state lost. Packet-ins and
  ///    sweeps are dropped until a warm restart restores the cores.
  ///  * kHung — process wedged (heartbeats stop) but memory intact;
  ///    un-hanging resumes exactly where it stopped.
  ///  * kRetired — fenced after a standby promotion: even if the old
  ///    primary comes back it must never release again (split-brain
  ///    would mean duplicate egress).
  enum class ProcessState : std::uint8_t { kLive, kCrashed, kHung, kRetired };

  /// Per-edge-switch deployment configuration.
  struct EdgeConfig {
    /// Edge ingress port → replica index in [0, k).
    std::unordered_map<device::PortIndex, int> replica_ports;
    /// Virtualized NetCo (§VII): when non-empty, the replica identity is
    /// the 802.1Q tunnel tag instead of the ingress port, and the tag is
    /// stripped before comparison (the k tunnel copies differ only in
    /// their tag; the compare must see the original frame).
    std::unordered_map<std::uint16_t, int> replica_vlans;
    /// Compare element parameters for this edge's core.
    CompareConfig compare;
    /// How long a flood-flagged port stays blocked (zero = forever).
    sim::Duration block_duration = sim::Duration::zero();
    /// Detection-only deployments (sampling, §IX): ingest and alarm but
    /// never packet-out a release — the data plane already forwarded.
    bool verify_only = false;
  };

  /// Registers the deployment config for a named edge switch. Must happen
  /// before that switch attaches to the controller.
  void configure_edge(const std::string& switch_name, EdgeConfig config);

  // controller::App:
  void on_attached(controller::Controller& controller,
                   openflow::ControlChannel& channel) override;
  void on_packet_in(controller::Controller& controller,
                    openflow::ControlChannel& channel,
                    openflow::PacketIn event) override;

  /// All alarms raised so far (monitoring / tests).
  [[nodiscard]] const std::vector<CompareAlarm>& alarms() const noexcept {
    return alarms_;
  }

  /// Compare statistics for one edge (nullptr if unknown).
  [[nodiscard]] const CompareStats* stats_for(
      const std::string& edge_name) const;

  /// Mutable access to one edge's compare core (nullptr if unknown).
  /// Fault injection uses this to squeeze the cache or audit invariants.
  [[nodiscard]] CompareCore* core_for(const std::string& edge_name);

  /// Drops the control channel for an edge (switch crash / teardown).
  /// Pending timers and sweeps keep running against the core but stop
  /// touching the dead channel; advice stays pending until re-attach.
  void detach_edge(const std::string& edge_name);

  /// Packet-ins that arrived from a port not registered as a replica port.
  [[nodiscard]] std::uint64_t unknown_port_drops() const noexcept {
    return unknown_port_drops_;
  }

  /// Crash-recovery hooks (src/resilience): process liveness.
  void set_process_state(ProcessState state) noexcept { state_ = state; }
  [[nodiscard]] ProcessState process_state() const noexcept { return state_; }

  /// Packet-ins dropped because the process was not kLive.
  [[nodiscard]] std::uint64_t downtime_drops() const noexcept {
    return downtime_drops_;
  }

 private:
  struct EdgeState {
    EdgeConfig config;
    CompareCore core;
    openflow::ControlChannel* channel = nullptr;
    explicit EdgeState(EdgeConfig cfg)
        : config(std::move(cfg)), core(config.compare) {}
  };

  void act_on_advice(controller::Controller& controller, EdgeState& state);
  void schedule_sweep(controller::Controller& controller, EdgeState& state);

  std::unordered_map<std::string, EdgeState> edges_;
  std::vector<CompareAlarm> alarms_;
  std::uint64_t unknown_port_drops_ = 0;
  ProcessState state_ = ProcessState::kLive;
  std::uint64_t downtime_drops_ = 0;
};

}  // namespace netco::core
