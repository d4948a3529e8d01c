#include "host/tcp.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace netco::host {
namespace {

constexpr sim::Duration kMinRto = sim::Duration::milliseconds(200);
constexpr sim::Duration kMaxRto = sim::Duration::seconds(60);
constexpr sim::Duration kDelAckTimeout = sim::Duration::milliseconds(40);
/// Maximum segment size.
constexpr std::size_t kMss = 1460;
/// CPU time to send one TCP data segment (TSO-style batching: cheaper than
/// a UDP datagram's HostProfile::kUdpTxCost).
constexpr sim::Duration kTxCost = sim::Duration::microseconds(25);

/// Reconstructs a 64-bit sequence number from its 32-bit wire form, picking
/// the value closest to `reference` (standard serial-number unwrap).
std::uint64_t unwrap_seq(std::uint64_t reference, std::uint32_t wire) noexcept {
  const std::uint64_t base = reference & ~0xFFFFFFFFULL;
  std::uint64_t candidate = base | wire;
  if (candidate + 0x80000000ULL < reference) candidate += 0x100000000ULL;
  else if (candidate > reference + 0x80000000ULL && candidate >= 0x100000000ULL)
    candidate -= 0x100000000ULL;
  return candidate;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpSender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(Host& host, TcpConfig config)
    : host_(host), config_(config) {
  cwnd_ = static_cast<double>(config_.init_cwnd_segments * kMss);
  ssthresh_ = static_cast<double>(config_.rwnd);
  host_.bind_tcp(config_.local_port,
                 [this](const net::ParsedPacket& parsed, const net::Packet&) {
                   if (running_) on_ack(parsed);
                 });
}

TcpSender::~TcpSender() {
  stop();
  *alive_ = false;
  host_.unbind_tcp(config_.local_port);
}

void TcpSender::start() {
  if (running_) return;
  running_ = true;
  try_send();
}

void TcpSender::stop() {
  running_ = false;
  rto_handle_.cancel();
}

sim::Duration TcpSender::rto() const noexcept {
  double rto_ns = have_rtt_ ? srtt_ns_ + 4.0 * rttvar_ns_
                            : static_cast<double>(kMinRto.ns()) * 5.0;
  rto_ns *= std::pow(2.0, rto_backoff_);
  const auto clamped = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(rto_ns), kMinRto.ns(), kMaxRto.ns());
  return sim::Duration::nanoseconds(clamped);
}

void TcpSender::arm_rto() {
  rto_handle_.cancel();
  if (flight_size() == 0) return;
  rto_handle_ = host_.simulator().schedule_after(rto(), [this] { on_rto(); });
}

void TcpSender::try_send() {
  if (!running_ || tx_pending_ || in_recovery_) return;
  const auto window = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cwnd_), config_.rwnd);
  if (flight_size() + kMss > window) return;

  tx_pending_ = true;
  const std::uint64_t seq = snd_nxt_;
  host_.cpu_submit(kTxCost,
                   [this, seq, alive = std::weak_ptr<bool>(alive_)] {
    const auto guard = alive.lock();
    if (!guard || !*guard) return;  // sender died with the job queued
    tx_pending_ = false;
    if (!running_) return;
    emit_segment(seq, /*is_retransmission=*/false);
    snd_nxt_ = seq + kMss;
    if (flight_size() == kMss) arm_rto();  // first unacked data
    try_send();
  });
}

void TcpSender::emit_segment(std::uint64_t seq, bool is_retransmission) {
  ++stats_.segments_sent;
  if (is_retransmission) ++stats_.retransmissions;
  snd_max_ = std::max(snd_max_, seq + kMss);

  // RTT sampling: one outstanding sample; never time a retransmission.
  if (!is_retransmission && !rtt_sample_) {
    rtt_sample_ = {seq + kMss, host_.simulator().now()};
  } else if (is_retransmission && rtt_sample_ &&
             seq < rtt_sample_->first) {
    rtt_sample_.reset();  // Karn's rule
  }

  std::vector<std::byte> payload(kMss, std::byte{0});
  net::TcpHeader hdr;
  hdr.src_port = config_.local_port;
  hdr.dst_port = config_.peer_port;
  hdr.seq = static_cast<std::uint32_t>(seq & 0xFFFFFFFF);
  hdr.ack = 0;
  hdr.flags = net::kTcpAck | net::kTcpPsh;
  hdr.window = 0xFFFF;
  net::Packet segment = net::build_tcp(
      net::EthernetHeader{.dst = config_.peer_mac, .src = host_.mac()},
      std::nullopt,
      net::Ipv4Header{.src = host_.ip(),
                      .dst = config_.peer_ip,
                      .identification = host_.next_ip_id()},
      hdr, payload);
  host_.transmit(std::move(segment));
}

void TcpSender::on_ack(const net::ParsedPacket& parsed) {
  if (!parsed.tcp || !(parsed.tcp->flags & net::kTcpAck)) return;
  const std::uint64_t ack = unwrap_seq(snd_una_, parsed.tcp->ack);

  if (ack > snd_una_ && ack <= snd_max_) {
    const std::uint64_t acked = ack - snd_una_;
    snd_una_ = ack;
    // After an RTO resets snd_nxt (go-back-N), an ACK can cover data that
    // was in flight before the reset; never re-send acknowledged bytes.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    stats_.bytes_acked += acked;
    rto_backoff_ = 0;

    // RTT sample completion.
    if (rtt_sample_ && ack >= rtt_sample_->first) {
      const double sample =
          static_cast<double>((host_.simulator().now() - rtt_sample_->second).ns());
      if (!have_rtt_) {
        srtt_ns_ = sample;
        rttvar_ns_ = sample / 2.0;
        have_rtt_ = true;
      } else {
        rttvar_ns_ += (std::abs(srtt_ns_ - sample) - rttvar_ns_) / 4.0;
        srtt_ns_ += (sample - srtt_ns_) / 8.0;
      }
      stats_.srtt_ms = srtt_ns_ / 1e6;
      rtt_sample_.reset();
    }

    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;   // full recovery (NewReno exit)
        cwnd_ = ssthresh_;
        dup_acks_ = 0;
      } else {
        // Partial ACK: retransmit the next hole, deflate the window.
        emit_segment(snd_una_, /*is_retransmission=*/true);
        cwnd_ = std::max(cwnd_ - static_cast<double>(acked) +
                             static_cast<double>(kMss),
                         static_cast<double>(kMss));
      }
    } else {
      dup_acks_ = 0;
      const auto mss = static_cast<double>(kMss);
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min(static_cast<double>(acked), mss);  // slow start
      } else {
        cwnd_ += mss * mss / cwnd_;  // congestion avoidance
      }
      // Growing past the receive window is pointless and skews the
      // next ssthresh computation.
      cwnd_ = std::min(cwnd_, static_cast<double>(config_.rwnd));
    }
    arm_rto();
    try_send();
    return;
  }

  if (ack == snd_una_ && flight_size() > 0) {
    // Only dup ACKs carrying SACK hole evidence count toward fast
    // retransmit; SACK-less dup ACKs are DSACK-style duplicate reports
    // (e.g. from a Dup-scenario copy) and indicate no loss.
    if (!parsed.tcp->sack) return;
    // During recovery we stay conservative (RFC 6675 spirit): no window
    // inflation, no new data — with k duplicated copies each producing a
    // SACK'd dup ACK, Reno-style inflation triples the send rate exactly
    // when the path is losing packets, which starves the retransmissions
    // themselves and spirals into RTO.
    if (in_recovery_) return;
    ++dup_acks_;
    if (dup_acks_ == 3) enter_fast_retransmit();
  }
}

void TcpSender::enter_fast_retransmit() {
  ++stats_.fast_retransmits;
  in_recovery_ = true;
  recover_ = snd_nxt_;
  const auto mss = static_cast<double>(kMss);
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0 * mss);
  cwnd_ = ssthresh_ + 3.0 * mss;
  emit_segment(snd_una_, /*is_retransmission=*/true);
  arm_rto();
}

void TcpSender::on_rto() {
  if (!running_ || flight_size() == 0) return;
  ++stats_.rto_fires;
  const auto mss = static_cast<double>(kMss);
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0 * mss);
  cwnd_ = mss;
  dup_acks_ = 0;
  in_recovery_ = false;
  snd_nxt_ = snd_una_ + kMss;  // go-back-N restart from the hole
  ++rto_backoff_;
  emit_segment(snd_una_, /*is_retransmission=*/true);
  arm_rto();
}

// ---------------------------------------------------------------------------
// TcpReceiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(Host& host, TcpConfig config)
    : host_(host), config_(config) {
  host_.bind_tcp(config_.local_port,
                 [this](const net::ParsedPacket& parsed,
                        const net::Packet& packet) { on_segment(parsed, packet); });
}

TcpReceiver::~TcpReceiver() {
  delack_handle_.cancel();
  host_.unbind_tcp(config_.local_port);
}

void TcpReceiver::on_segment(const net::ParsedPacket& parsed,
                             const net::Packet& packet) {
  if (!parsed.tcp) return;
  const std::size_t len = packet.size() - parsed.payload_offset;
  if (len == 0) return;  // pure ACK in the reverse direction: ignore
  ++stats_.segments_received;

  const std::uint64_t seq = unwrap_seq(rcv_nxt_, parsed.tcp->seq);

  if (seq + len <= rcv_nxt_) {
    // Entirely old data: a duplicate (e.g. a combiner-less Dup scenario
    // copy, or a spurious retransmission). RFC 793 requires an ACK (it is
    // how a lost ACK gets repaired); with SACK the sender can tell this
    // dup ACK reports a duplicate rather than a hole, so duplication alone
    // never triggers fast retransmit (the DSACK effect).
    ++stats_.duplicate_segments;
    send_ack();
    return;
  }

  if (seq > rcv_nxt_) {
    // Out of order: buffer and send an immediate duplicate ACK.
    ++stats_.out_of_order_segments;
    ooo_.emplace(seq, len);
    send_ack();
    return;
  }

  // In-order (or partially overlapping) data: advance and drain the buffer.
  rcv_nxt_ = seq + len;
  stats_.bytes_delivered += len;
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (it->first > rcv_nxt_) break;
    const std::uint64_t end = it->first + it->second;
    if (end > rcv_nxt_) {
      stats_.bytes_delivered += end - rcv_nxt_;
      rcv_nxt_ = end;
    }
    it = ooo_.erase(it);
  }

  if (!ooo_.empty()) {
    send_ack();  // still a hole: keep the dup-ACK clock running
    return;
  }
  if (++unacked_in_order_ >= 2) {
    send_ack();
  } else {
    schedule_delayed_ack();
  }
}

void TcpReceiver::schedule_delayed_ack() {
  if (delack_handle_.pending()) return;
  delack_handle_ = host_.simulator().schedule_after(kDelAckTimeout, [this] {
    if (unacked_in_order_ > 0) send_ack();
  });
}

void TcpReceiver::send_ack() {
  unacked_in_order_ = 0;
  delack_handle_.cancel();
  ++stats_.acks_sent;
  net::TcpHeader hdr;
  hdr.src_port = config_.local_port;
  hdr.dst_port = config_.peer_port;
  hdr.seq = 0;
  hdr.ack = static_cast<std::uint32_t>(rcv_nxt_ & 0xFFFFFFFF);
  hdr.flags = net::kTcpAck;
  hdr.window = 0xFFFF;
  if (!ooo_.empty()) {
    // First SACK block: the earliest out-of-order run. This is the hole
    // evidence the sender's dupack counter keys on.
    const auto first = ooo_.begin();
    std::uint64_t run_end = first->first + first->second;
    for (auto it = std::next(first); it != ooo_.end(); ++it) {
      if (it->first > run_end) break;
      run_end = std::max(run_end, it->first + it->second);
    }
    hdr.sack = {{static_cast<std::uint32_t>(first->first & 0xFFFFFFFF),
                 static_cast<std::uint32_t>(run_end & 0xFFFFFFFF)}};
  }
  net::Packet ack = net::build_tcp(
      net::EthernetHeader{.dst = config_.peer_mac, .src = host_.mac()},
      std::nullopt,
      net::Ipv4Header{.src = host_.ip(),
                      .dst = config_.peer_ip,
                      .identification = host_.next_ip_id()},
      hdr, {});
  // ACK generation costs receiver CPU (it shares the core with segment
  // processing); transmission is then immediate.
  host_.cpu_submit(host_.profile().ack_tx_cost,
                   [&host = host_, a = std::move(ack)]() mutable {
                     host.transmit(std::move(a));
                   });
}

}  // namespace netco::host
