// OpenFlowSwitch: the untrusted commodity router of the paper.
//
// Implements the OF 1.0 datapath: per-packet pipeline latency, flow-table
// lookup, action application, table-miss punting to the controller. The
// switch also exposes two hooks the rest of the system builds on:
//
//  * `DatapathInterceptor` — the adversary's entry point. The threat model
//    (§II) places no restriction on what a malicious datapath does, so the
//    interceptor runs *before* the flow table and may rewrite, redirect,
//    duplicate, drop, or fabricate packets at will.
//  * an ingress tap — the monitoring used in the §VI case study (its
//    tcpdump-style screen on a core switch).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "device/datapath.h"
#include "device/node.h"
#include "obs/observability.h"
#include "openflow/flow_table.h"
#include "openflow/messages.h"
#include "sim/time.h"

namespace netco::openflow {

class ControlChannel;
class OpenFlowSwitch;

/// The interceptor contract is shared with every untrusted datapath kind
/// (see device/datapath.h); this alias keeps the OpenFlow-centric name.
using DatapathInterceptor = device::DatapathInterceptor;

/// Vendor personality of a switch — the heterogeneity NetCo leverages.
struct SwitchProfile {
  std::string vendor = "generic";
  /// Ingress-to-egress pipeline latency applied to every packet
  /// (kernel-softswitch magnitude, matching the Mininet testbed).
  sim::Duration processing_delay = sim::Duration::microseconds(15);
};

/// Datapath counters.
struct SwitchStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t packet_ins_sent = 0;
  std::uint64_t dropped_blocked_port = 0;
  std::uint64_t dropped_no_rule = 0;  ///< miss with no controller attached
  /// Lookups that skipped at least one dead-port-guarded entry before
  /// hitting — packets actively detoured by the static failover layer.
  std::uint64_t failover_reroutes = 0;
  /// Hits on rules stamped with kFailoverCookie (total packets carried
  /// by compiler-installed backup rules, rerouted or not).
  std::uint64_t static_backup_hits = 0;
};

/// An OpenFlow 1.0 switch.
class OpenFlowSwitch : public device::Node, public device::Datapath {
 public:
  OpenFlowSwitch(sim::Simulator& simulator, std::string name,
                 SwitchProfile profile = {});

  // --- datapath --------------------------------------------------------
  void handle_packet(device::PortIndex in_port, net::Packet packet) override;

  /// Applies an OF action list with `in_port` context (shared by the
  /// table path, packet-out handling and interceptors).
  void apply_actions(device::PortIndex in_port, const ActionList& actions,
                     net::Packet packet);

  /// Emits `packet` directly on `port`, bypassing the flow table but
  /// respecting port blocks. For interceptors and trusted components.
  void raw_output(device::PortIndex port, net::Packet packet) override;

  /// Datapath: the event loop.
  sim::Simulator& datapath_simulator() override { return simulator(); }

  /// Punts `packet` to the controller as a packet-in (trusted edge logic
  /// such as the sampling compare uses this; drops if no controller).
  void send_to_controller(device::PortIndex in_port, net::Packet packet) {
    punt_to_controller(in_port, std::move(packet));
  }

  // --- control plane ---------------------------------------------------
  /// Binds the control channel (called by ControlChannel's constructor).
  void bind_control(ControlChannel* channel) { control_ = channel; }

  /// Handlers invoked by the control channel after its latency.
  void receive_packet_out(PacketOut out);
  void receive_port_mod(const PortMod& mod);

  // --- hooks & introspection -------------------------------------------
  /// Installs the adversarial hook (nullptr to clear).
  void set_interceptor(DatapathInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  /// Monitoring tap fired for every ingress packet (before any processing).
  using IngressTap = std::function<void(device::PortIndex, const net::Packet&)>;
  void set_ingress_tap(IngressTap tap) { tap_ = std::move(tap); }

  /// The flow table (single table 0, as in OF 1.0 / the prototype).
  [[nodiscard]] FlowTable& table() noexcept { return table_; }
  [[nodiscard]] const FlowTable& table() const noexcept { return table_; }

  /// Datapath counters.
  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }

  /// Per-port rx/tx packet counters (index = port).
  [[nodiscard]] const std::vector<std::uint64_t>& port_rx() const noexcept {
    return port_rx_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& port_tx() const noexcept {
    return port_tx_;
  }

  /// Whether `port` is administratively blocked.
  [[nodiscard]] bool port_blocked(device::PortIndex port) const noexcept;

  /// Per-port liveness as seen by the local keepalive: a dead port
  /// disables every flow entry guarded on it (fast-failover semantics).
  /// Unlike a port block this is a *matching* condition, not an egress
  /// filter — lower-priority backup rules take over at the lookup.
  void set_port_live(device::PortIndex port, bool live);
  [[nodiscard]] bool port_live(device::PortIndex port) const noexcept;

  /// The vendor personality.
  [[nodiscard]] const SwitchProfile& profile() const noexcept {
    return profile_;
  }

 private:
  void pipeline(device::PortIndex in_port, net::Packet packet);
  /// Table lookup under the liveness-guard vector, with failover
  /// counter/trace accounting (shared by the pipeline and OFPP_TABLE).
  const FlowSpec* guarded_lookup(const Match& key, const net::Packet& packet);
  void punt_to_controller(device::PortIndex in_port, net::Packet packet);
  void count_tx(const net::Packet& packet, device::PortIndex port);

  SwitchProfile profile_;
  FlowTable table_;
  obs::Observability* obs_;
  obs::Counter* table_hit_counter_;   ///< "switch.table_hits"
  obs::Counter* table_miss_counter_;  ///< "switch.table_misses"
  obs::Counter* reroute_counter_;     ///< "failover.reroute"
  obs::Counter* static_hit_counter_;  ///< "resilience.static_hit"
  obs::LazyComponentName trace_name_;  ///< name(), interned
  ControlChannel* control_ = nullptr;
  DatapathInterceptor* interceptor_ = nullptr;
  IngressTap tap_;
  SwitchStats stats_;
  std::vector<bool> blocked_;
  std::vector<bool> port_dead_;  ///< liveness-guard state (true = dead)
  std::vector<std::uint64_t> port_rx_;
  std::vector<std::uint64_t> port_tx_;
};

}  // namespace netco::openflow
