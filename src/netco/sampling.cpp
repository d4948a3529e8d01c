#include "netco/sampling.h"

#include "common/assert.h"
#include "common/hash.h"
#include "netco/fastpath.h"
#include "openflow/switch.h"

namespace netco::core {

bool SamplingEdgeLogic::is_sampled(const net::Packet& packet) const noexcept {
  if (config_.sample_rate >= 1.0) return true;
  if (config_.sample_rate <= 0.0) return false;
  // Deterministic content hash → uniform [0,1) threshold test. Identical
  // copies sample identically; a *modified* copy may sample differently,
  // which surfaces at the compare as an unconfirmed singleton — still a
  // detection signal. content_hash() is memoized in the shared payload
  // buffer, so across the k copies of a datagram the payload is hashed
  // once, not once per edge decision.
  const std::uint64_t mixed = hash_mix(packet.content_hash(), 0x5A4D);
  const double u =
      static_cast<double>(mixed >> 11) * 0x1.0p-53;  // [0,1)
  return u < config_.sample_rate;
}

bool SamplingEdgeLogic::intercept(device::Datapath& datapath,
                                  device::PortIndex in_port,
                                  net::Packet& packet) {
  const auto it = config_.replica_ports.find(in_port);
  if (it == config_.replica_ports.end()) {
    return false;  // not replica traffic: normal rules apply
  }
  if (spoofs_local_source(packet, config_.local_macs)) {
    return false;  // the table's anti-spoof screen drops it
  }
  // The sampling logic lives on a trusted OpenFlow edge; escalation uses
  // its packet-in path.
  auto* edge = dynamic_cast<openflow::OpenFlowSwitch*>(&datapath);
  NETCO_ASSERT_MSG(edge != nullptr,
                   "SamplingEdgeLogic requires an OpenFlow edge switch");

  const bool sampled = is_sampled(packet);
  if (it->second == 0) {  // the primary replica
    if (sampled) {
      edge->send_to_controller(in_port, packet);
    }
    edge->raw_output(config_.neighbor_port, std::move(packet));
    return true;
  }
  if (sampled) {
    edge->send_to_controller(in_port, std::move(packet));
  }
  return true;  // secondary copies never continue downstream
}

}  // namespace netco::core
