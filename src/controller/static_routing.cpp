#include "controller/static_routing.h"

#include <utility>

namespace netco::controller {

void install_mac_route(openflow::OpenFlowSwitch& sw,
                       const net::MacAddress& dst, device::PortIndex out_port) {
  openflow::FlowSpec spec;
  spec.match.with_dl_dst(dst);
  spec.actions = {openflow::OutputAction::to(out_port)};
  spec.priority = kMacRoutePriority;
  sw.table().add(std::move(spec));
}

}  // namespace netco::controller
