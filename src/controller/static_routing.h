// Proactive, destination-MAC-based routing (the paper's §VI setup:
// "routing based on MAC destination addresses"). Topology builders
// install each route straight into a switch's table.
#pragma once

#include <cstdint>

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

}  // namespace netco::controller
