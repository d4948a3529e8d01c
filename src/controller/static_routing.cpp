#include "controller/static_routing.h"

#include "common/log.h"

namespace netco::controller {

void install_mac_route(openflow::OpenFlowSwitch& sw,
                       const net::MacAddress& dst, device::PortIndex out_port) {
  openflow::FlowSpec spec;
  spec.match.with_dl_dst(dst);
  spec.actions = {openflow::OutputAction::to(out_port)};
  spec.priority = kMacRoutePriority;
  sw.table().add(std::move(spec), sw.simulator().now());
}

void install_mac_drop(openflow::OpenFlowSwitch& sw, const net::MacAddress& dst,
                      std::uint16_t priority) {
  openflow::FlowSpec spec;
  spec.match.with_dl_dst(dst);
  spec.actions = {};  // empty action list == drop in OF 1.0
  spec.priority = priority;
  sw.table().add(std::move(spec), sw.simulator().now());
}

void StaticRoutingApp::on_attached(Controller& /*controller*/,
                                   openflow::ControlChannel& channel) {
  const auto it = routes_.find(channel.attached_switch().name());
  if (it == routes_.end()) return;
  for (const auto& [mac, port] : it->second) {
    openflow::FlowSpec spec;
    spec.match.with_dl_dst(mac);
    spec.actions = {openflow::OutputAction::to(port)};
    spec.priority = kMacRoutePriority;
    channel.flow_mod(
        openflow::FlowMod{openflow::FlowModCommand::kAdd, std::move(spec)});
  }
}

void StaticRoutingApp::on_packet_in(Controller& /*controller*/,
                                    openflow::ControlChannel& channel,
                                    openflow::PacketIn event) {
  ++misses_;
  NETCO_LOG_DEBUG("static-routing", "policy miss on {}: {}",
                  channel.attached_switch().name(), event.packet.summary());
}

}  // namespace netco::controller
