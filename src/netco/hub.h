// Hub: the trusted splitter element of the robust combiner (§III).
//
// "The implementation of the hubs is simple and can be realized in the
// datapath: the logic boils down to multiplying the packets, in a
// stateless manner." — the paper's argument is that such a component is
// simple enough to fabricate as trusted hardware. The class below is that
// component as a standalone Node; deployments that realize the hub as flow
// rules on a trusted OpenFlow edge switch use install_hub_rules() instead.
//
// The health subsystem adds one piece of (trusted) configuration to the
// otherwise stateless splitter: a dynamic per-port mask. A masked port is
// excluded from the fan-out — quarantining a replica without rewiring —
// except for an optional probe trickle: every `probe_stride`-th upstream
// packet is copied to masked ports too, feeding the probation scoring that
// decides readmission.
#pragma once

#include <cstdint>
#include <vector>

#include "device/node.h"
#include "obs/observability.h"
#include "openflow/switch.h"
#include "sim/time.h"

namespace netco::core {

/// A 1-to-N packet multiplier with a dynamic per-port fan-out mask.
///
/// Port 0 is the upstream side; every packet arriving there is copied to
/// every other unmasked port. Packets arriving on any other port are
/// forwarded to port 0 unchanged (so a Hub pair can also merge in the
/// reverse direction). No per-packet state beyond the split sequence the
/// probe trickle is derived from.
class Hub : public device::Node {
 public:
  Hub(sim::Simulator& simulator, std::string name,
      sim::Duration processing_delay = sim::Duration::nanoseconds(500));

  void handle_packet(device::PortIndex in_port, net::Packet packet) override;

  /// Masks `port` out of (or back into) the upstream fan-out. Masking the
  /// upstream port 0 is meaningless and ignored.
  void set_port_masked(device::PortIndex port, bool masked);

  /// Whether `port` is currently excluded from the fan-out.
  [[nodiscard]] bool port_masked(device::PortIndex port) const noexcept;

  /// Probe trickle: every `stride`-th split also copies to masked ports
  /// (0 disables the trickle — masked ports then receive nothing).
  void set_probe_stride(std::uint64_t stride) noexcept {
    probe_stride_ = stride;
  }

  /// Packets multiplied so far (upstream-direction arrivals). Reads the
  /// per-instance registry counter — the metrics registry is the single
  /// source of truth, there is no shadow count.
  [[nodiscard]] std::uint64_t split_count() const noexcept {
    return split_counter_->value();
  }
  /// Packets merged toward upstream so far.
  [[nodiscard]] std::uint64_t merge_count() const noexcept {
    return merge_counter_->value();
  }

 private:
  sim::Duration delay_;
  std::vector<bool> masked_;        ///< indexed by port, grown on demand
  std::uint64_t probe_stride_ = 0;  ///< 0 = no trickle to masked ports
  obs::Observability* obs_;
  obs::Counter* split_counter_;     ///< per-instance ("hub.<name>.split")
  obs::Counter* merge_counter_;     ///< per-instance ("hub.<name>.merge")
  obs::Counter* split_total_;       ///< fleet-wide aggregate ("hub.split")
  obs::Counter* merge_total_;       ///< fleet-wide aggregate ("hub.merge")
  obs::Counter* fanout_counter_;    ///< copies actually emitted
};

/// Realizes the hub as flow rules on a trusted OpenFlow switch: every
/// packet entering on `from` is output on each port in `to`, at the edge
/// layout's kHubPriority.
void install_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from,
                       const std::vector<device::PortIndex>& to);

/// Removes the fan-out rule install_hub_rules() placed for `from` — a hub
/// crash in the rules-on-edge deployment. The hub is stateless, so a
/// restart is exactly install_hub_rules() again: the switch's port and
/// registry counters continue from where they were (counter continuity).
void remove_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from);

}  // namespace netco::core
