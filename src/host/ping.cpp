#include "host/ping.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.h"

namespace netco::host {

namespace {

constexpr std::uint16_t kIcmpId = 1;
constexpr std::size_t kPayloadBytes = 56;  ///< ping default

}  // namespace

IcmpPinger::IcmpPinger(Host& host, PingConfig config)
    : host_(host), config_(config) {
  host_.set_icmp_reply_handler(
      [this](const net::ParsedPacket& parsed, const net::Packet&) {
        on_reply(parsed);
      });
}

IcmpPinger::~IcmpPinger() {
  for (auto& timer : timers_) timer.cancel();
  host_.set_icmp_reply_handler(nullptr);
}

void IcmpPinger::start(std::function<void()> on_done) {
  on_done_ = std::move(on_done);
  send_next();
}

void IcmpPinger::send_next() {
  if (sent_ >= config_.count) {
    all_sent_ = true;
    finish_if_done();
    return;
  }
  const auto seq = static_cast<std::uint16_t>(sent_++);
  std::vector<std::byte> payload(kPayloadBytes, std::byte{0xA5});
  net::Packet request = net::build_icmp_echo(
      net::EthernetHeader{.dst = config_.dst_mac, .src = host_.mac()},
      std::nullopt,
      net::Ipv4Header{.src = host_.ip(),
                      .dst = config_.dst_ip,
                      .identification = host_.next_ip_id()},
      net::IcmpEchoHeader{.type = net::kIcmpEchoRequest,
                          .id = kIcmpId,
                          .seq = seq},
      payload);
  pending_[seq] = host_.simulator().now();
  ++outstanding_;
  host_.cpu_submit(HostProfile::kIcmpCost,
                   [&host = host_, r = std::move(request)]() mutable {
                     host.transmit(std::move(r));
                   });

  // Per-sequence timeout: an unanswered request stops blocking completion.
  timers_.push_back(
      host_.simulator().schedule_after(config_.timeout, [this, seq] {
        const auto it = pending_.find(seq);
        if (it != pending_.end()) {
          pending_.erase(it);
          --outstanding_;
          finish_if_done();
        }
      }));
  timers_.push_back(host_.simulator().schedule_after(
      config_.interval, [this] { send_next(); }));
}

void IcmpPinger::on_reply(const net::ParsedPacket& parsed) {
  if (!parsed.icmp || parsed.icmp->id != kIcmpId) return;
  const std::uint16_t seq = parsed.icmp->seq;
  const auto it = pending_.find(seq);
  if (it == pending_.end()) {
    if (rtt_by_seq_.contains(seq)) ++duplicates_;
    return;
  }
  const double rtt_ms = (host_.simulator().now() - it->second).ms();
  rtt_by_seq_[seq] = rtt_ms;
  pending_.erase(it);
  --outstanding_;
  finish_if_done();
}

void IcmpPinger::finish_if_done() {
  if (finished_ || !all_sent_ || outstanding_ > 0) return;
  finished_ = true;
  if (on_done_) on_done_();
}

PingReport IcmpPinger::report() const {
  PingReport out;
  out.transmitted = sent_;
  out.received = static_cast<int>(rtt_by_seq_.size());
  out.duplicates = duplicates_;
  if (rtt_by_seq_.empty()) return out;

  out.rtts_ms.reserve(rtt_by_seq_.size());
  for (const auto& [seq, rtt] : rtt_by_seq_) out.rtts_ms.push_back(rtt);
  std::sort(out.rtts_ms.begin(), out.rtts_ms.end());

  out.min_ms = out.rtts_ms.front();
  out.max_ms = out.rtts_ms.back();
  double sum = 0.0;
  for (double r : out.rtts_ms) sum += r;
  out.avg_ms = sum / static_cast<double>(out.rtts_ms.size());
  double var = 0.0;
  for (double r : out.rtts_ms) var += (r - out.avg_ms) * (r - out.avg_ms);
  out.mdev_ms = std::sqrt(var / static_cast<double>(out.rtts_ms.size()));
  return out;
}

}  // namespace netco::host
