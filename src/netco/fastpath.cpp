#include "netco/fastpath.h"

#include <utility>

#include "common/assert.h"
#include "openflow/messages.h"

namespace netco::core {

bool FastPathTap::intercept(device::Datapath& datapath,
                            device::PortIndex in_port, net::Packet& packet) {
  const auto port = static_cast<std::size_t>(in_port);
  const int replica =
      port < port_to_replica_.size() ? port_to_replica_[port] : -1;
  if (replica < 0) {
    return false;  // host-side traffic: hub/broadcast rules apply
  }
  openflow::OpenFlowSwitch* edge = edge_;
  NETCO_ASSERT_MSG(edge == &datapath,
                   "FastPathTap installed on a different datapath than it "
                   "was built for");

  if (spoofs_local_source(packet, config_.local_macs)) {
    // Fall through so the table's anti-spoof screen drops it, exactly as
    // without the tap.
    return false;
  }

  const FastResult result =
      core_->ingest_sampled(replica, packet, edge->simulator().now());
  if (result.escalated) {
    // Elected for the full k-way compare: the classic punt. The compare
    // process ingests it and (maybe) packet-outs the release.
    edge->send_to_controller(in_port, std::move(packet));
    return true;
  }
  if (result.released.has_value()) {
    // Fast-path release: run the released copy through this edge's own
    // flow table with no in_port context — byte-for-byte what a
    // packet-out OFPP_TABLE from the compare process does, minus the
    // control-channel round trip.
    edge->apply_actions(device::kNoPort,
                        {openflow::OutputAction::table()},
                        std::move(*result.released));
  }
  return true;  // released, or voted without releasing, or late noise
}

bool spoofs_local_source(
    const net::Packet& packet,
    const std::vector<net::MacAddress>& local_macs) noexcept {
  if (packet.size() < 12) return false;
  const net::MacAddress src = packet.mac_at(6);
  for (const auto& mac : local_macs) {
    if (src == mac) return true;
  }
  return false;
}

}  // namespace netco::core
