// Proactive, destination-MAC-based routing (the paper's §VI setup:
// "routing based on MAC destination addresses").
//
// Routes can be installed either directly into a switch's table (the usual
// path for topology builders) or through a controller app that pushes them
// over the control channel on attach (exercises flow-mod plumbing).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "controller/controller.h"
#include "net/address.h"
#include "openflow/switch.h"

namespace netco::controller {

/// Priority of every destination-MAC route: the topology builders', the
/// trusted combiner edges' (below their hub, screen and punt rules) and
/// the guarded primaries the failover compiler re-installs in place.
inline constexpr std::uint16_t kMacRoutePriority = 10;

/// Installs "dl_dst == dst → output(port)" at kMacRoutePriority directly
/// into `sw`'s table.
void install_mac_route(openflow::OpenFlowSwitch& sw,
                       const net::MacAddress& dst, device::PortIndex out_port);

/// Installs a drop rule for `dst` (empty action list) into `sw`'s table.
void install_mac_drop(openflow::OpenFlowSwitch& sw, const net::MacAddress& dst,
                      std::uint16_t priority = kMacRoutePriority);

/// A static route set: per switch name, destination MAC → output port.
using RouteMap = std::unordered_map<
    std::string, std::vector<std::pair<net::MacAddress, device::PortIndex>>>;

/// Controller app that pushes a static RouteMap over the control channel
/// when each switch attaches, then drops any packet-in (a strict network
/// where table misses are policy violations).
class StaticRoutingApp : public App {
 public:
  explicit StaticRoutingApp(RouteMap routes) : routes_(std::move(routes)) {}

  void on_attached(Controller& controller,
                   openflow::ControlChannel& channel) override;
  void on_packet_in(Controller& controller, openflow::ControlChannel& channel,
                    openflow::PacketIn event) override;

  /// Packet-ins seen (i.e. policy misses); useful as an alarm count.
  [[nodiscard]] std::uint64_t miss_count() const noexcept { return misses_; }

 private:
  RouteMap routes_;
  std::uint64_t misses_ = 0;
};

}  // namespace netco::controller
