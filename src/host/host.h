// Host: an end system with a single NIC, a CPU service model and a tiny
// protocol demultiplexer.
//
// The paper's measurements (iperf in Mininet) were limited by host/softswitch
// CPU far more than by link capacity, so the host models a single-core CPU
// as a FIFO service queue: application sends and packet receives each cost
// CPU time, and the receive path has a bounded backlog (NIC ring) whose
// overflow is exactly the UDP loss iperf observes when the offered rate
// exceeds what the receiver can process. Pure TCP ACKs are processed for
// free (documented simplification: their per-packet cost is folded into the
// data-segment costs).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "device/node.h"
#include "net/address.h"
#include "net/headers.h"
#include "net/packet.h"
#include "sim/time.h"

namespace netco::host {

/// CPU/NIC cost personality of a host.
struct HostProfile {
  /// CPU time to generate + send one UDP datagram (sendto path): a fixed
  /// syscall cost plus a per-byte copy cost. At iperf's default 1470-byte
  /// payload this totals ~42 µs — the Table-I calibration point.
  static constexpr sim::Duration kUdpTxCost = sim::Duration::microseconds(30);
  static constexpr double kUdpTxNsPerByte = 8.0;
  /// CPU time to turn an ICMP echo request into a reply, or to send one.
  static constexpr sim::Duration kIcmpCost = sim::Duration::microseconds(5);

  /// CPU time to receive one data packet (softirq + socket delivery):
  /// this fixed part plus 3.4 ns per byte; ~15 µs at a full-size frame.
  sim::Duration rx_cost = sim::Duration::microseconds(10);
  /// CPU time to generate one TCP ACK. Duplicated segments each trigger an
  /// immediate ACK (RFC 793/2018), so a Dup-scenario receiver pays this k
  /// times per segment — a TCP-only cost that UDP never sees, and part of
  /// why the paper's Dup TCP numbers trail the Central ones.
  sim::Duration ack_tx_cost = sim::Duration::microseconds(14);
  /// Relative jitter on every CPU job: cost × U(1-jitter, 1+jitter).
  /// Real per-packet costs vary (caches, interrupts); without this the
  /// deterministic event loop locks TCP into knife-edge limit cycles.
  double service_jitter = 0.25;
  /// Receive backlog capacity in packets. Overflow drops with hysteresis:
  /// once the ring fills, everything is dropped until it drains to half —
  /// the bursty loss pattern of a timeslice-scheduled softswitch/host,
  /// which is what the paper's testbed produced. (Interleaved single-slot
  /// drops would let k-duplicated traffic through loss-free, acting as
  /// accidental FEC — not what real kernels do under overload.)
  std::size_t rx_backlog = 64;
};

/// Host counters.
struct HostStats {
  std::uint64_t rx_packets = 0;        ///< frames addressed to us, accepted
  std::uint64_t rx_stray = 0;          ///< frames NOT addressed to us
  std::uint64_t rx_backlog_drops = 0;  ///< NIC ring overflow
  std::uint64_t rx_bad_checksum = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t icmp_echo_requests = 0;  ///< requests answered
};

/// An end host with one NIC (port 0).
class Host : public device::Node {
 public:
  Host(sim::Simulator& simulator, std::string name, net::MacAddress mac,
       net::Ipv4Address ip, HostProfile profile = {});

  // --- identity ----------------------------------------------------------
  [[nodiscard]] const net::MacAddress& mac() const noexcept { return mac_; }
  [[nodiscard]] net::Ipv4Address ip() const noexcept { return ip_; }
  [[nodiscard]] const HostProfile& profile() const noexcept { return profile_; }

  /// Next IPv4 identification value. Every packet a real stack emits is
  /// distinguishable on the wire (IP ID / TCP timestamps); NetCo's
  /// bit-by-bit compare depends on this — a retransmission must not look
  /// identical to the original, or the compare would treat it as a stale
  /// copy of an already-released packet.
  [[nodiscard]] std::uint16_t next_ip_id() noexcept { return ip_id_++; }

  // --- datapath ----------------------------------------------------------
  void handle_packet(device::PortIndex in_port, net::Packet packet) override;

  /// Transmits a fully built frame on the NIC (no CPU charge; callers go
  /// through cpu_submit for paths that should cost CPU).
  void transmit(net::Packet packet);

  /// Enqueues work on the host CPU: after `cost` of CPU time (plus queueing
  /// behind earlier work), `done` runs. The CPU is a single FIFO server.
  void cpu_submit(sim::Duration cost, std::function<void()> done);

  // --- demux registration --------------------------------------------------
  /// Delivered after CPU receive processing; parse is pre-computed.
  using UdpHandler =
      std::function<void(const net::ParsedPacket&, const net::Packet&)>;
  using TcpHandler =
      std::function<void(const net::ParsedPacket&, const net::Packet&)>;
  using IcmpReplyHandler =
      std::function<void(const net::ParsedPacket&, const net::Packet&)>;

  /// Binds a UDP destination port.
  void bind_udp(std::uint16_t port, UdpHandler handler);
  /// Removes a UDP binding (app destructors call this; a handler must
  /// never outlive its app).
  void unbind_udp(std::uint16_t port);
  /// Binds a TCP destination port (both segments and ACKs are delivered).
  void bind_tcp(std::uint16_t port, TcpHandler handler);
  /// Removes a TCP binding.
  void unbind_tcp(std::uint16_t port);
  /// Receives ICMP echo *replies* (a pinger); requests are auto-answered.
  /// Pass nullptr to clear.
  void set_icmp_reply_handler(IcmpReplyHandler handler);

  /// Resolves `target` to a MAC via ARP (RFC 826): answers from the cache
  /// immediately, otherwise broadcasts who-has requests (3 tries, 200 ms
  /// apart) and calls `done` with the answer — or nullopt on timeout.
  /// Requests for this host's own IP are answered automatically.
  using ArpCallback = std::function<void(std::optional<net::MacAddress>)>;
  void arp_resolve(net::Ipv4Address target, ArpCallback done);

  /// The current ARP cache (tests/monitoring).
  [[nodiscard]] const std::unordered_map<net::Ipv4Address, net::MacAddress>&
  arp_cache() const noexcept {
    return arp_cache_;
  }

  /// Diagnostic tap invoked for every arriving frame, including stray ones,
  /// before any filtering (the case study's tcpdump screen).
  using RxTap = std::function<void(const net::Packet&)>;
  void set_rx_tap(RxTap tap) { rx_tap_ = std::move(tap); }

  /// Counters.
  [[nodiscard]] const HostStats& stats() const noexcept { return stats_; }

 private:
  void rx_deliver(net::Packet packet);
  void answer_echo(const net::ParsedPacket& parsed, const net::Packet& packet);
  void handle_arp(const net::ParsedPacket& parsed);
  void arp_retry(net::Ipv4Address target);
  void cpu_run_next();

  net::MacAddress mac_;
  net::Ipv4Address ip_;
  HostProfile profile_;
  HostStats stats_;

  struct CpuJob {
    sim::Duration cost;
    std::function<void()> done;
  };
  std::deque<CpuJob> cpu_queue_;
  bool cpu_busy_ = false;
  std::size_t rx_in_cpu_ = 0;   ///< rx jobs in the CPU queue (backlog bound)
  bool rx_dropping_ = false;    ///< hysteresis overflow state
  std::uint16_t ip_id_ = 1;     ///< rolling IPv4 identification

  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  std::unordered_map<std::uint16_t, TcpHandler> tcp_handlers_;
  IcmpReplyHandler icmp_reply_handler_;
  RxTap rx_tap_;

  // ARP state.
  struct ArpPending {
    std::vector<ArpCallback> waiters;
    int tries = 0;
  };
  std::unordered_map<net::Ipv4Address, net::MacAddress> arp_cache_;
  std::unordered_map<net::Ipv4Address, ArpPending> arp_pending_;
};

}  // namespace netco::host
