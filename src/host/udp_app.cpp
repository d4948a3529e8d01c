#include "host/udp_app.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.h"

namespace netco::host {
namespace {

/// Tx jobs allowed in the CPU queue before the pacer starts skipping; keeps
/// an overdriven sender from building an unbounded backlog (a real iperf
/// client simply falls behind its -b target).
constexpr std::size_t kTxBacklogLimit = 32;
constexpr std::uint16_t kSrcPort = 40000;

}  // namespace

UdpSender::UdpSender(Host& host, UdpSenderConfig config)
    : host_(host), config_(config) {
  NETCO_ASSERT(config_.payload_bytes >= kMinPayload);
  NETCO_ASSERT(config_.rate.positive());
}

sim::Duration UdpSender::interval() const noexcept {
  const auto bits = static_cast<std::uint64_t>(config_.payload_bytes) * 8;
  return sim::Duration::nanoseconds(static_cast<std::int64_t>(
      bits * 1'000'000'000ULL / config_.rate.bps()));
}

UdpSender::~UdpSender() {
  stop();
  *alive_ = false;
}

void UdpSender::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void UdpSender::stop() {
  running_ = false;
  tick_handle_.cancel();
}

void UdpSender::tick() {
  if (!running_) return;
  tick_handle_ = host_.simulator().schedule_after(interval(), [this] { tick(); });

  // Pacing tick: hand one datagram to the CPU unless it is already swamped.
  if (pending_ >= kTxBacklogLimit) {
    ++stats_.pacing_skips;
    return;
  }

  std::vector<std::byte> payload(config_.payload_bytes, std::byte{0});
  const std::uint32_t seq = next_seq_++;
  const auto now_ns =
      static_cast<std::uint64_t>(host_.simulator().now().ns());
  for (int i = 0; i < 4; ++i)
    payload[static_cast<std::size_t>(i)] =
        static_cast<std::byte>((seq >> (24 - 8 * i)) & 0xFF);
  for (int i = 0; i < 8; ++i)
    payload[static_cast<std::size_t>(4 + i)] =
        static_cast<std::byte>((now_ns >> (56 - 8 * i)) & 0xFF);

  net::Packet datagram = net::build_udp(
      net::EthernetHeader{.dst = config_.dst_mac, .src = host_.mac()},
      std::nullopt,
      net::Ipv4Header{.src = host_.ip(),
                      .dst = config_.dst_ip,
                      .identification = host_.next_ip_id()},
      net::UdpHeader{.src_port = kSrcPort, .dst_port = config_.dst_port},
      payload);

  ++pending_;
  const auto tx_cost =
      host::HostProfile::kUdpTxCost +
      sim::Duration::nanoseconds(static_cast<std::int64_t>(
          host::HostProfile::kUdpTxNsPerByte *
          static_cast<double>(config_.payload_bytes)));
  host_.cpu_submit(tx_cost,
                   [this, alive = std::weak_ptr<bool>(alive_),
                    p = std::move(datagram)]() mutable {
                     const auto guard = alive.lock();
                     if (!guard || !*guard) return;  // sender died
                     --pending_;
                     ++stats_.datagrams_sent;
                     host_.transmit(std::move(p));
                   });
}

UdpSink::UdpSink(Host& host, std::uint16_t port)
    : host_(host), port_(port) {
  window_start_ = host_.simulator().now();
  host_.bind_udp(port, [this](const net::ParsedPacket& parsed,
                              const net::Packet& packet) {
    on_datagram(parsed, packet);
  });
}

UdpSink::~UdpSink() { host_.unbind_udp(port_); }

void UdpSink::reset() {
  live_ = UdpSinkReport{};
  seen_.clear();
  max_seq_ = 0;
  min_seq_ = 0;
  any_ = false;
  jitter_ns_ = 0.0;
  have_prev_transit_ = false;
  prev_transit_ns_ = 0;
  payload_bytes_ = 0;
  window_start_ = host_.simulator().now();
}

void UdpSink::on_datagram(const net::ParsedPacket& parsed,
                          const net::Packet& packet) {
  const std::size_t payload_off = parsed.payload_offset;
  if (packet.size() < payload_off + UdpSender::kMinPayload) return;
  ++live_.datagrams_received;

  std::uint32_t seq = 0;
  for (std::size_t i = 0; i < 4; ++i)
    seq = (seq << 8) | packet.u8(payload_off + i);
  std::uint64_t sent_ns = 0;
  for (std::size_t i = 0; i < 8; ++i)
    sent_ns = (sent_ns << 8) | packet.u8(payload_off + 4 + i);

  if (!seen_.insert(seq).second) {
    ++live_.duplicates;
    return;  // duplicates contribute nothing further (combiner semantics)
  }
  ++live_.unique_received;
  payload_bytes_ += packet.size() - payload_off;
  max_seq_ = any_ ? std::max(max_seq_, seq) : seq;
  min_seq_ = any_ ? std::min(min_seq_, seq) : seq;
  any_ = true;

  // RFC 3550 jitter over first-copy arrivals.
  const std::int64_t transit =
      host_.simulator().now().ns() - static_cast<std::int64_t>(sent_ns);
  if (have_prev_transit_) {
    const double d = std::abs(static_cast<double>(transit - prev_transit_ns_));
    jitter_ns_ += (d - jitter_ns_) / 16.0;
  }
  prev_transit_ns_ = transit;
  have_prev_transit_ = true;
}

UdpSinkReport UdpSink::report() const {
  UdpSinkReport out = live_;
  // Expected counts from the first sequence observed in this measurement
  // window (senders keep numbering across a mid-run reset()).
  out.expected =
      any_ ? static_cast<std::uint64_t>(max_seq_) - min_seq_ + 1 : 0;
  out.lost = out.expected > out.unique_received
                 ? out.expected - out.unique_received
                 : 0;
  out.loss_rate = out.expected > 0
                      ? static_cast<double>(out.lost) /
                            static_cast<double>(out.expected)
                      : 0.0;
  out.jitter_ms = jitter_ns_ / 1e6;
  out.payload_bytes_unique = payload_bytes_;
  const double elapsed =
      (host_.simulator().now() - window_start_).sec();
  out.goodput_mbps =
      elapsed > 0.0
          ? static_cast<double>(payload_bytes_) * 8.0 / elapsed / 1e6
          : 0.0;
  return out;
}

}  // namespace netco::host
