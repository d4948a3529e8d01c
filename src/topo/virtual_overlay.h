// The virtualized NetCo of §VII (Fig. 9): instead of physically replicating
// routers, a flow is split at the trusted ingress into k copies carried
// over k vendor-disjoint *paths* (802.1Q tunnel per path) and recombined
// at the trusted egress by the same compare logic, with the tunnel tag
// playing the role of the replica identity.
//
//          ┌─ path 0 (vendor a) ─┐
//   hA ── sA ─ path 1 (vendor b) ─ sB ── hB
//          └─ path 2 (vendor c) ─┘
//
// sA and sB are trusted edge switches; each splits outbound flows onto the
// tunnels and feeds inbound tunnel copies to the shared compare process.
// The hardware saving vs. the physical combiner: zero additional routers —
// the k paths already exist in any redundantly provisioned network.
#pragma once

#include <memory>
#include <vector>

#include "controller/controller.h"
#include "device/network.h"
#include "host/host.h"
#include "netco/compare_service.h"
#include "openflow/switch.h"
#include "sim/simulator.h"

namespace netco::topo {

/// Virtualized-NetCo topology options. The compare runs the default
/// CompareConfig on a c_program() process; links and hosts are the
/// defaults; the seed is 1.
struct VirtualOverlayOptions {
  /// Tunnel tag of path i: kBaseVlan + i.
  static constexpr std::uint16_t kBaseVlan = 100;

  int paths = 3;           ///< k tunnels
  int hops_per_path = 1;   ///< untrusted switches on each path
};

/// The instantiated overlay.
class VirtualOverlayTopology {
 public:
  explicit VirtualOverlayTopology(VirtualOverlayOptions options);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] device::Network& network() noexcept { return network_; }
  [[nodiscard]] host::Host& host_a() noexcept { return *host_a_; }
  [[nodiscard]] host::Host& host_b() noexcept { return *host_b_; }
  [[nodiscard]] openflow::OpenFlowSwitch& ingress() noexcept { return *sa_; }
  [[nodiscard]] openflow::OpenFlowSwitch& egress() noexcept { return *sb_; }

  /// Untrusted switch `hop` on `path`.
  [[nodiscard]] openflow::OpenFlowSwitch& path_switch(int path, int hop);

  /// The shared compare process.
  [[nodiscard]] core::CompareService& compare() noexcept { return *compare_; }
  [[nodiscard]] controller::Controller& compare_controller() noexcept {
    return *controller_;
  }

  [[nodiscard]] const VirtualOverlayOptions& options() const noexcept {
    return options_;
  }

 private:
  void build();

  VirtualOverlayOptions options_;
  sim::Simulator simulator_;
  device::Network network_;
  host::Host* host_a_ = nullptr;
  host::Host* host_b_ = nullptr;
  openflow::OpenFlowSwitch* sa_ = nullptr;
  openflow::OpenFlowSwitch* sb_ = nullptr;
  std::vector<std::vector<openflow::OpenFlowSwitch*>> path_switches_;
  std::unique_ptr<core::CompareService> compare_;
  std::unique_ptr<controller::Controller> controller_;
};

}  // namespace netco::topo
