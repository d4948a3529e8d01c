#include "adversary/behaviors.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "routing/rip_msg.h"

namespace netco::adversary {

PacketPredicate match_all() {
  return [](device::PortIndex, const net::ParsedPacket&, const net::Packet&) {
    return true;
  };
}

PacketPredicate match_dl_dst(const net::MacAddress& mac) {
  return [mac](device::PortIndex, const net::ParsedPacket& parsed,
               const net::Packet&) { return parsed.eth.dst == mac; };
}

PacketPredicate match_nw_dst(net::Ipv4Address ip) {
  return [ip](device::PortIndex, const net::ParsedPacket& parsed,
              const net::Packet&) {
    return parsed.ipv4 && parsed.ipv4->dst == ip;
  };
}

PacketPredicate from_port(device::PortIndex port, PacketPredicate inner) {
  return [port, inner = std::move(inner)](device::PortIndex in_port,
                                          const net::ParsedPacket& parsed,
                                          const net::Packet& packet) {
    return in_port == port && inner(in_port, parsed, packet);
  };
}

bool BehaviorBase::selects(device::PortIndex in_port,
                           const net::ParsedPacket& parsed,
                           const net::Packet& packet) {
  ++stats_.packets_inspected;
  if (!predicate_(in_port, parsed, packet)) return false;
  ++stats_.packets_attacked;
  return true;
}

bool RerouteBehavior::intercept(device::Datapath& dp,
                                device::PortIndex in_port,
                                net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !selects(in_port, *parsed, packet)) return false;
  dp.raw_output(wrong_port_, packet);
  return true;  // the legitimate route never sees the packet
}

bool MirrorBehavior::intercept(device::Datapath& dp,
                               device::PortIndex in_port,
                               net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !selects(in_port, *parsed, packet)) return false;
  dp.raw_output(mirror_port_, packet);  // exfiltrated copy
  return false;                         // original continues normally
}

bool ModifyBehavior::intercept(device::Datapath& /*dp*/,
                               device::PortIndex in_port,
                               net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !selects(in_port, *parsed, packet)) return false;
  mutator_(packet);
  return false;  // modified packet continues through the pipeline
}

ModifyBehavior::Mutator ModifyBehavior::retag_vlan(std::uint16_t vid) {
  return [vid](net::Packet& packet) { net::set_vlan(packet, vid); };
}

ModifyBehavior::Mutator ModifyBehavior::rewrite_dl_dst(
    const net::MacAddress& mac) {
  return [mac](net::Packet& packet) { net::set_dl_dst(packet, mac); };
}

ModifyBehavior::Mutator ModifyBehavior::corrupt_payload() {
  return [](net::Packet& packet) {
    // Flip a byte near the end: past every header, inside the payload.
    if (packet.size() > 0) net::corrupt_byte(packet, packet.size() - 1);
  };
}

bool DropBehavior::intercept(device::Datapath& /*dp*/,
                             device::PortIndex in_port,
                             net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !selects(in_port, *parsed, packet)) return false;
  return true;  // swallow
}

namespace {

std::uint8_t poison_metric(std::uint8_t /*metric*/) { return 0; }

}  // namespace

bool RoutePoisonBehavior::intercept(device::Datapath& /*dp*/,
                                    device::PortIndex in_port,
                                    net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !routing::is_rip_datagram(*parsed)) return false;
  if (!selects(in_port, *parsed, packet)) return false;
  routing::rewrite_metrics(packet, *parsed, &poison_metric);
  return false;  // the lie continues through the pipeline
}

std::uint8_t MetricInflateBehavior::inflate8(std::uint8_t metric) {
  return static_cast<std::uint8_t>(
      std::min<int>(metric + 8, routing::kRipInfinity));
}

bool MetricInflateBehavior::intercept(device::Datapath& /*dp*/,
                                      device::PortIndex in_port,
                                      net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !routing::is_rip_datagram(*parsed)) return false;
  if (!selects(in_port, *parsed, packet)) return false;
  // rewrite_metrics wants a capture-free function; dispatch on the step.
  if (inflate_by_ == 8) {
    routing::rewrite_metrics(packet, *parsed, &MetricInflateBehavior::inflate8);
  } else {
    const std::uint8_t step = inflate_by_;
    const auto message = routing::parse(packet.slice(
        parsed->payload_offset, packet.size() - parsed->payload_offset));
    if (!message) return false;
    for (std::size_t i = 0; i < message->entries.size(); ++i) {
      const std::size_t at = parsed->payload_offset +
                             routing::kRipHeaderBytes +
                             i * routing::kRipEntryBytes +
                             routing::kRipEntryMetricOffset;
      packet.set_u8(at, static_cast<std::uint8_t>(std::min<int>(
                            message->entries[i].metric + step,
                            routing::kRipInfinity)));
    }
    net::fix_checksums(packet);
  }
  return false;
}

bool BlackholeAdBehavior::intercept(device::Datapath& /*dp*/,
                                    device::PortIndex in_port,
                                    net::Packet& packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed) return false;
  if (routing::is_rip_datagram(*parsed)) {
    if (!selects(in_port, *parsed, packet)) return false;
    routing::rewrite_metrics(packet, *parsed, &poison_metric);
    return false;  // the attracting lie goes out
  }
  if (!parsed->ipv4 || !selects(in_port, *parsed, packet)) return false;
  ++data_dropped_;
  return true;  // the attracted traffic goes nowhere
}

bool CompositeBehavior::intercept(device::Datapath& dp,
                                  device::PortIndex in_port,
                                  net::Packet& packet) {
  for (const auto& behavior : chain_) {
    if (behavior->intercept(dp, in_port, packet)) return true;
  }
  return false;
}

DosFlooder::DosFlooder(device::Datapath& datapath, Config config)
    : datapath_(datapath), config_(config) {
  NETCO_ASSERT(config_.packets_per_sec > 0);
  NETCO_ASSERT(config_.packet_bytes >= 60);
}

void DosFlooder::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void DosFlooder::stop() {
  running_ = false;
  handle_.cancel();
}

void DosFlooder::tick() {
  if (!running_) return;
  const auto gap = sim::Duration::nanoseconds(
      static_cast<std::int64_t>(1e9 / config_.packets_per_sec));
  handle_ =
      datapath_.datapath_simulator().schedule_after(gap, [this] { tick(); });

  // Fabricate a UDP datagram with a rolling sequence so every flood packet
  // is distinct (defeats naive duplicate suppression).
  std::vector<std::byte> payload(config_.packet_bytes - 42, std::byte{0xDD});
  const std::uint32_t seq = seq_++;
  for (int i = 0; i < 4; ++i)
    payload[static_cast<std::size_t>(i)] =
        static_cast<std::byte>((seq >> (24 - 8 * i)) & 0xFF);
  net::Packet flood = net::build_udp(
      net::EthernetHeader{.dst = config_.dst_mac, .src = config_.src_mac},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(6666),
                      .dst = net::Ipv4Address::from_id(1)},
      net::UdpHeader{.src_port = 6666, .dst_port = 6666}, payload);
  ++emitted_;
  datapath_.raw_output(config_.out_port, std::move(flood));
}

}  // namespace netco::adversary
