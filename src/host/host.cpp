#include "host/host.h"

#include <utility>

#include "common/assert.h"

namespace netco::host {

namespace {

/// Per-byte part of the receive cost (HostProfile::rx_cost is the fixed
/// part).
constexpr double kRxNsPerByte = 3.4;

}  // namespace

Host::Host(sim::Simulator& simulator, std::string name, net::MacAddress mac,
           net::Ipv4Address ip, HostProfile profile)
    : Node(simulator, std::move(name)), mac_(mac), ip_(ip), profile_(profile) {}

void Host::transmit(net::Packet packet) {
  NETCO_ASSERT_MSG(port_count() >= 1, "host transmit before wiring");
  ++stats_.tx_packets;
  send(0, std::move(packet));
}

void Host::cpu_submit(sim::Duration cost, std::function<void()> done) {
  cpu_queue_.push_back(CpuJob{cost, std::move(done)});
  if (!cpu_busy_) cpu_run_next();
}

void Host::cpu_run_next() {
  if (cpu_queue_.empty()) {
    cpu_busy_ = false;
    return;
  }
  cpu_busy_ = true;
  sim::Duration cost = cpu_queue_.front().cost;
  if (profile_.service_jitter > 0.0) {
    const double factor = simulator().rng().uniform(
        1.0 - profile_.service_jitter, 1.0 + profile_.service_jitter);
    cost = sim::Duration::nanoseconds(
        static_cast<std::int64_t>(static_cast<double>(cost.ns()) * factor));
  }
  simulator().schedule_after(cost, [this] {
    CpuJob job = std::move(cpu_queue_.front());
    cpu_queue_.pop_front();
    job.done();
    cpu_run_next();
  });
}

void Host::handle_packet(device::PortIndex /*in_port*/, net::Packet packet) {
  if (rx_tap_) rx_tap_(packet);

  // NIC-level MAC filter: frames not for us are counted and dropped (the
  // case-study screens rely on this count to detect stray packets).
  const net::MacAddress dst = packet.size() >= 6
                                  ? packet.mac_at(0)
                                  : net::MacAddress{};
  if (packet.size() < 14 || (dst != mac_ && !dst.is_broadcast())) {
    ++stats_.rx_stray;
    return;
  }

  // Classify before charging CPU: pure TCP ACKs bypass the cost model.
  const auto parsed = net::parse_packet(packet);
  const bool pure_ack = parsed && parsed->tcp &&
                        parsed->payload_offset >= packet.size();
  if (pure_ack) {
    ++stats_.rx_packets;
    rx_deliver(std::move(packet));
    return;
  }

  if (rx_dropping_) {
    if (rx_in_cpu_ > profile_.rx_backlog / 2) {
      ++stats_.rx_backlog_drops;
      return;
    }
    rx_dropping_ = false;  // drained to the low-water mark
  } else if (rx_in_cpu_ >= profile_.rx_backlog) {
    rx_dropping_ = true;
    ++stats_.rx_backlog_drops;
    return;
  }
  ++rx_in_cpu_;
  const auto rx_cost =
      profile_.rx_cost +
      sim::Duration::nanoseconds(static_cast<std::int64_t>(
          kRxNsPerByte * static_cast<double>(packet.size())));
  cpu_submit(rx_cost, [this, p = std::move(packet)]() mutable {
    --rx_in_cpu_;
    ++stats_.rx_packets;
    rx_deliver(std::move(p));
  });
}

void Host::rx_deliver(net::Packet packet) {
  const auto parsed = net::parse_packet(packet);
  if (!parsed) return;
  if (parsed->ipv4 && !net::checksums_valid(packet)) {
    ++stats_.rx_bad_checksum;
    return;
  }

  if (parsed->arp) {
    handle_arp(*parsed);
    return;
  }
  if (parsed->icmp) {
    if (parsed->icmp->type == net::kIcmpEchoRequest) {
      answer_echo(*parsed, packet);
    } else if (parsed->icmp->type == net::kIcmpEchoReply) {
      if (icmp_reply_handler_) icmp_reply_handler_(*parsed, packet);
    }
    return;
  }
  if (parsed->udp) {
    const auto it = udp_handlers_.find(parsed->udp->dst_port);
    if (it != udp_handlers_.end()) it->second(*parsed, packet);
    return;
  }
  if (parsed->tcp) {
    const auto it = tcp_handlers_.find(parsed->tcp->dst_port);
    if (it != tcp_handlers_.end()) it->second(*parsed, packet);
    return;
  }
}

void Host::answer_echo(const net::ParsedPacket& parsed,
                       const net::Packet& packet) {
  ++stats_.icmp_echo_requests;
  // Rebuild the echo as a reply, swapping L2/L3 addresses (kernel path).
  const std::size_t payload_len = packet.size() - parsed.payload_offset;
  net::Packet reply = net::build_icmp_echo(
      net::EthernetHeader{.dst = parsed.eth.src, .src = mac_},
      parsed.vlan,
      net::Ipv4Header{.src = ip_,
                      .dst = parsed.ipv4->src,
                      .identification = next_ip_id()},
      net::IcmpEchoHeader{.type = net::kIcmpEchoReply,
                          .id = parsed.icmp->id,
                          .seq = parsed.icmp->seq},
      packet.slice(parsed.payload_offset, payload_len));
  cpu_submit(HostProfile::kIcmpCost,
             [this, r = std::move(reply)]() mutable { transmit(std::move(r)); });
}

void Host::handle_arp(const net::ParsedPacket& parsed) {
  const auto& arp = *parsed.arp;
  if (arp.oper == net::kArpRequest && arp.target_ip == ip_) {
    // Who-has us: unicast a reply (and learn the asker, as kernels do).
    arp_cache_[arp.sender_ip] = arp.sender_mac;
    transmit(net::build_arp(net::ArpHeader{.oper = net::kArpReply,
                                           .sender_mac = mac_,
                                           .sender_ip = ip_,
                                           .target_mac = arp.sender_mac,
                                           .target_ip = arp.sender_ip}));
    return;
  }
  if (arp.oper == net::kArpReply) {
    arp_cache_[arp.sender_ip] = arp.sender_mac;
    const auto it = arp_pending_.find(arp.sender_ip);
    if (it == arp_pending_.end()) return;
    auto waiters = std::move(it->second.waiters);
    arp_pending_.erase(it);
    for (auto& waiter : waiters) waiter(arp.sender_mac);
  }
}

void Host::arp_resolve(net::Ipv4Address target, ArpCallback done) {
  const auto cached = arp_cache_.find(target);
  if (cached != arp_cache_.end()) {
    done(cached->second);
    return;
  }
  auto& pending = arp_pending_[target];
  pending.waiters.push_back(std::move(done));
  if (pending.waiters.size() > 1) return;  // a probe is already out
  pending.tries = 0;
  arp_retry(target);
}

void Host::arp_retry(net::Ipv4Address target) {
  const auto it = arp_pending_.find(target);
  if (it == arp_pending_.end()) return;  // answered meanwhile
  if (it->second.tries >= 3) {
    auto waiters = std::move(it->second.waiters);
    arp_pending_.erase(it);
    for (auto& waiter : waiters) waiter(std::nullopt);
    return;
  }
  ++it->second.tries;
  transmit(net::build_arp(net::ArpHeader{.oper = net::kArpRequest,
                                         .sender_mac = mac_,
                                         .sender_ip = ip_,
                                         .target_mac = net::MacAddress{},
                                         .target_ip = target}));
  simulator().schedule_after(sim::Duration::milliseconds(200),
                             [this, target] { arp_retry(target); });
}

void Host::bind_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::unbind_udp(std::uint16_t port) { udp_handlers_.erase(port); }

void Host::bind_tcp(std::uint16_t port, TcpHandler handler) {
  tcp_handlers_[port] = std::move(handler);
}

void Host::unbind_tcp(std::uint16_t port) { tcp_handlers_.erase(port); }

void Host::set_icmp_reply_handler(IcmpReplyHandler handler) {
  icmp_reply_handler_ = std::move(handler);
}

}  // namespace netco::host
