#include "workload/engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/headers.h"

namespace netco::workload {
namespace {

constexpr std::uint16_t kSrcPort = 40001;
/// Destination UDP port the engine binds on the receiving host.
constexpr std::uint16_t kDstPort = 5002;
/// Timer-wheel tick for the per-flow timers (pacing, RTO, think).
constexpr sim::Duration kWheelTick = sim::Duration::microseconds(100);

/// Flow size in packets ~ bounded Pareto(kParetoAlpha) on
/// [kFlowMinPackets, flow_max_packets].
constexpr double kParetoAlpha = 1.3;
constexpr std::uint32_t kFlowMinPackets = 1;

/// Packets offered per pacing tick start at kInitialWindow, double per
/// tick up to kMaxWindow (slow-start shape), and halve on a timeout.
constexpr std::uint32_t kInitialWindow = 2;
constexpr std::uint32_t kMaxWindow = 32;
static_assert(kInitialWindow > 0 && kInitialWindow <= kMaxWindow &&
              kMaxWindow <= 0xFFFF);
constexpr sim::Duration kPacingInterval = sim::Duration::milliseconds(2);
/// Completion-check timeout after a flow has offered all packets: any
/// shortfall is retransmitted as fresh datagrams.
constexpr sim::Duration kRto = sim::Duration::milliseconds(40);
/// Retransmit rounds before the flow is abandoned.
constexpr std::uint32_t kMaxRetries = 6;

/// Diurnal: λ(t) = λ0 · (1 + kDiurnalAmplitude · sin(2πt/duration)),
/// floored at 5% of λ0.
constexpr double kDiurnalAmplitude = 0.6;
/// Flash crowd: λ multiplier inside the burst window.
constexpr double kFlashMultiplier = 8.0;
/// Burst window length (flash crowd and DDoS) as a fraction of duration.
constexpr double kBurstLenFrac = 0.2;

/// FCT buckets (ms): sub-RTT mice through multi-second elephants.
std::vector<double> fct_bounds() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
}

/// Flow-size buckets (packets): powers of two over the Pareto support.
std::vector<double> flow_size_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

}  // namespace

const char* to_string(Scenario scenario) noexcept {
  switch (scenario) {
    case Scenario::kSteady:
      return "steady";
    case Scenario::kDiurnal:
      return "diurnal";
    case Scenario::kFlashCrowd:
      return "flash-crowd";
    case Scenario::kDdosBurst:
      return "ddos-burst";
  }
  return "?";
}

WorkloadEngine::WorkloadEngine(host::Host& src, host::Host& dst,
                               WorkloadConfig config, std::uint64_t seed,
                               std::optional<DdosHook> ddos)
    : src_(src),
      dst_(dst),
      config_(config),
      rng_(seed),
      pool_(config.pool_capacity),
      wheel_(src.simulator(), {.tick = kWheelTick}),
      fct_ms_(obs::global().metrics.histogram("workload.fct_ms",
                                              fct_bounds())),
      flow_size_pkts_(obs::global().metrics.histogram(
          "workload.flow_size_pkts", flow_size_bounds())) {
  static_assert(WorkloadConfig::kPayloadBytes >= kMinPayload);
  NETCO_ASSERT(config_.session_arrivals_per_sec > 0.0);
  NETCO_ASSERT(config_.duration.ns() > 0);
  NETCO_ASSERT(config_.active_cap > 0);
  if (config_.scenario == Scenario::kDdosBurst) {
    NETCO_ASSERT_MSG(ddos.has_value() && ddos->datapath != nullptr,
                     "ddos-burst scenario requires a DdosHook");
    flooder_ = std::make_unique<adversary::DosFlooder>(*ddos->datapath,
                                                       ddos->config);
  }
  dst_.bind_udp(kDstPort,
                [this](const net::ParsedPacket& parsed,
                       const net::Packet& packet) {
                  on_datagram(parsed, packet);
                });
}

WorkloadEngine::~WorkloadEngine() {
  dst_.unbind_udp(kDstPort);
  *alive_ = false;
}

void WorkloadEngine::start() {
  if (running_) return;
  running_ = true;
  schedule_arrival();
  if (flooder_) {
    const auto frac_ns = [this](double frac) {
      return sim::Duration::nanoseconds(static_cast<std::int64_t>(
          static_cast<double>(config_.duration.ns()) * frac));
    };
    ddos_start_ = src_.simulator().schedule_after(
        frac_ns(config_.burst_start_frac), [this] { flooder_->start(); });
    ddos_stop_ = src_.simulator().schedule_after(
        frac_ns(config_.burst_start_frac + kBurstLenFrac),
        [this] { flooder_->stop(); });
  }
}

double WorkloadEngine::arrival_rate_at(sim::TimePoint t) const noexcept {
  const double base = config_.session_arrivals_per_sec;
  const double frac = static_cast<double>(t.since_origin().ns()) /
                      static_cast<double>(config_.duration.ns());
  switch (config_.scenario) {
    case Scenario::kSteady:
    case Scenario::kDdosBurst:
      return base;
    case Scenario::kDiurnal:
      return std::max(0.05 * base,
                      base * (1.0 + kDiurnalAmplitude *
                                        std::sin(2.0 * M_PI * frac)));
    case Scenario::kFlashCrowd:
      return (frac >= config_.burst_start_frac &&
              frac < config_.burst_start_frac + kBurstLenFrac)
                 ? base * kFlashMultiplier
                 : base;
  }
  return base;
}

void WorkloadEngine::schedule_arrival() {
  if (draining_) return;
  const sim::TimePoint now = src_.simulator().now();
  if (now.since_origin() >= config_.duration) return;
  const double rate = arrival_rate_at(now);
  const double gap_s = rng_.exponential(1.0 / rate);
  const auto gap = std::max(
      sim::Duration::nanoseconds(1), sim::Duration::seconds_f(gap_s));
  arrival_ = src_.simulator().schedule_after(gap, [this] { on_arrival(); });
}

void WorkloadEngine::on_arrival() {
  if (draining_) return;
  start_session();
  schedule_arrival();
}

std::uint32_t WorkloadEngine::draw_flow_count() {
  const double mean = config_.flows_per_session_mean;
  if (mean <= 1.0) return 1;
  // Geometric with support >= 1 and the configured mean (p = 1/mean).
  const double u = std::min(rng_.uniform01(), 1.0 - 1e-12);
  const double n =
      1.0 + std::floor(std::log1p(-u) / std::log1p(-1.0 / mean));
  return static_cast<std::uint32_t>(std::clamp(n, 1.0, 65536.0));
}

std::uint32_t WorkloadEngine::draw_flow_packets() {
  const std::uint32_t lo = kFlowMinPackets;
  const std::uint32_t hi = std::max(lo, config_.flow_max_packets);
  if (lo == hi) return lo;
  // Bounded Pareto inverse CDF on [lo, hi].
  const double alpha = kParetoAlpha;
  const double u = std::min(rng_.uniform01(), 1.0 - 1e-12);
  const double ratio =
      std::pow(static_cast<double>(lo) / static_cast<double>(hi), alpha);
  const double x = static_cast<double>(lo) /
                   std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha);
  return static_cast<std::uint32_t>(std::clamp(
      x, static_cast<double>(lo), static_cast<double>(hi)));
}

void WorkloadEngine::start_session() {
  const std::uint32_t index = pool_.acquire();
  if (index == FlowPool::kNil) {
    ++stats_.pool_exhausted;
    return;
  }
  ++stats_.sessions_started;
  pool_.flows_left[index] = draw_flow_count();
  begin_flow(index);
}

void WorkloadEngine::begin_flow(std::uint32_t index) {
  pool_.state[index] = FlowState::kPending;
  if (active_count_ < config_.active_cap) {
    activate(index);
    return;
  }
  ++stats_.admission_waits;
  pool_.fifo_next[index] = FlowPool::kNil;
  if (fifo_tail_ == FlowPool::kNil) {
    fifo_head_ = fifo_tail_ = index;
  } else {
    pool_.fifo_next[fifo_tail_] = index;
    fifo_tail_ = index;
  }
}

void WorkloadEngine::activate(std::uint32_t index) {
  ++active_count_;
  ++stats_.flows_started;
  pool_.state[index] = FlowState::kPacing;
  pool_.token[index] = next_token_++;
  if (next_token_ == 0) next_token_ = 1;  // 0 marks "no live flow"
  const std::uint32_t total = draw_flow_packets();
  flow_size_pkts_.observe(static_cast<double>(total));
  pool_.total[index] = total;
  pool_.to_offer[index] = total;
  pool_.delivered[index] = 0;
  pool_.next_seq[index] = 0;
  pool_.retries[index] = 0;
  pool_.window[index] = static_cast<std::uint16_t>(kInitialWindow);
  pool_.flow_start_ns[index] = src_.simulator().now().ns();
  do_pace(index);
}

void WorkloadEngine::admit_from_queue() {
  while (active_count_ < config_.active_cap && fifo_head_ != FlowPool::kNil) {
    const std::uint32_t index = fifo_head_;
    fifo_head_ = pool_.fifo_next[index];
    if (fifo_head_ == FlowPool::kNil) fifo_tail_ = FlowPool::kNil;
    pool_.fifo_next[index] = FlowPool::kNil;
    activate(index);
  }
}

void WorkloadEngine::on_timer(void* ctx, std::uint64_t arg) {
  auto* engine = static_cast<WorkloadEngine*>(ctx);
  const auto index = static_cast<std::uint32_t>(arg);
  engine->pool_.timer[index] = 0;
  switch (engine->pool_.state[index]) {
    case FlowState::kPacing:
      engine->do_pace(index);
      break;
    case FlowState::kRtoWait:
      engine->on_rto(index);
      break;
    case FlowState::kThinking:
      engine->on_think(index);
      break;
    case FlowState::kFree:
    case FlowState::kPending:
      NETCO_ASSERT_MSG(false, "timer fired for an idle flow record");
  }
}

void WorkloadEngine::do_pace(std::uint32_t index) {
  const std::uint32_t burst =
      std::min<std::uint32_t>(pool_.window[index], pool_.to_offer[index]);
  std::uint32_t sent = 0;
  while (sent < burst) {
    if (tx_backlog_ >= kTxBacklogLimit) {
      ++stats_.pacing_skips;  // CPU swamped: clip the burst, retry next tick
      break;
    }
    emit_packet(index);
    ++sent;
  }
  pool_.to_offer[index] -= sent;
  if (pool_.to_offer[index] > 0) {
    if (sent == burst) {  // grow only when the whole burst left on time
      pool_.window[index] = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(pool_.window[index] * 2, kMaxWindow));
    }
    pool_.timer[index] =
        wheel_.schedule_after(kPacingInterval, &on_timer, this, index);
    return;
  }
  pool_.state[index] = FlowState::kRtoWait;
  pool_.timer[index] = wheel_.schedule_after(kRto, &on_timer, this, index);
}

void WorkloadEngine::on_rto(std::uint32_t index) {
  if (pool_.delivered[index] >= pool_.total[index]) {
    complete_flow(index);
    return;
  }
  if (pool_.retries[index] >= kMaxRetries) {
    ++stats_.flows_aborted;
    end_flow(index);
    return;
  }
  ++pool_.retries[index];
  const std::uint32_t missing = pool_.total[index] - pool_.delivered[index];
  stats_.retransmit_packets += missing;
  // Shortfall becomes a fresh round: new datagrams (new seqs and IP ids —
  // the compare must never see a retransmission as a stale copy), half
  // the window (timeout = congestion signal).
  pool_.to_offer[index] = missing;
  pool_.window[index] = static_cast<std::uint16_t>(std::max<std::uint32_t>(
      kInitialWindow, pool_.window[index] / 2));
  pool_.state[index] = FlowState::kPacing;
  do_pace(index);
}

void WorkloadEngine::on_think(std::uint32_t index) { begin_flow(index); }

void WorkloadEngine::complete_flow(std::uint32_t index) {
  fct_ms_.observe(
      static_cast<double>(src_.simulator().now().ns() -
                          pool_.flow_start_ns[index]) /
      1e6);
  ++stats_.flows_completed;
  end_flow(index);
}

void WorkloadEngine::end_flow(std::uint32_t index) {
  if (pool_.timer[index] != 0) {
    wheel_.cancel(pool_.timer[index]);  // the hot O(1) cancel path
    pool_.timer[index] = 0;
  }
  pool_.token[index] = 0;  // in-flight stragglers are stale from here on
  --active_count_;
  admit_from_queue();
  if (draining_ || pool_.flows_left[index] <= 1) {
    ++stats_.sessions_finished;
    pool_.release(index);
    return;
  }
  --pool_.flows_left[index];
  pool_.state[index] = FlowState::kThinking;
  const double think_s = rng_.exponential(config_.think_mean.sec());
  pool_.timer[index] = wheel_.schedule_after(
      std::max(sim::Duration::nanoseconds(1),
               sim::Duration::seconds_f(think_s)),
      &on_timer, this, index);
}

void WorkloadEngine::emit_packet(std::uint32_t index) {
  const std::uint32_t seq = pool_.next_seq[index]++;
  const std::uint32_t token = pool_.token[index];
  std::vector<std::byte> payload(WorkloadConfig::kPayloadBytes, std::byte{0});
  const auto put_u32 = [&payload](std::size_t off, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i)
      payload[off + i] = static_cast<std::byte>((v >> (24 - 8 * i)) & 0xFF);
  };
  put_u32(0, index);
  put_u32(4, token);
  put_u32(8, seq);

  net::Packet datagram = net::build_udp(
      net::EthernetHeader{.dst = dst_.mac(), .src = src_.mac()}, std::nullopt,
      net::Ipv4Header{.src = src_.ip(),
                      .dst = dst_.ip(),
                      .identification = src_.next_ip_id()},
      net::UdpHeader{.src_port = kSrcPort, .dst_port = kDstPort},
      payload);

  ++tx_backlog_;
  const auto tx_cost =
      host::HostProfile::kUdpTxCost +
      sim::Duration::nanoseconds(static_cast<std::int64_t>(
          host::HostProfile::kUdpTxNsPerByte *
          static_cast<double>(WorkloadConfig::kPayloadBytes)));
  src_.cpu_submit(tx_cost,
                  [this, alive = std::weak_ptr<bool>(alive_),
                   p = std::move(datagram)]() mutable {
                    const auto guard = alive.lock();
                    if (!guard || !*guard) return;  // engine died
                    --tx_backlog_;
                    ++stats_.packets_offered;
                    src_.transmit(std::move(p));
                  });
}

void WorkloadEngine::on_datagram(const net::ParsedPacket& parsed,
                                 const net::Packet& packet) {
  const std::size_t off = parsed.payload_offset;
  if (packet.size() < off + kMinPayload) {
    ++stats_.packets_stale;  // runt (e.g. DDoS garbage that leaked through)
    return;
  }
  const auto get_u32 = [&packet, off](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v = (v << 8) | packet.u8(off + at + i);
    return v;
  };
  const std::uint32_t index = get_u32(0);
  const std::uint32_t token = get_u32(4);
  if (index >= pool_.capacity() || token == 0 ||
      pool_.token[index] != token) {
    // Late delivery for a flow that already completed, aborted, or whose
    // record was recycled: never credit it to the current occupant.
    ++stats_.packets_stale;
    return;
  }
  ++stats_.packets_delivered;
  ++pool_.delivered[index];
  if (pool_.delivered[index] >= pool_.total[index]) complete_flow(index);
}

void WorkloadEngine::begin_drain() {
  if (draining_) return;
  draining_ = true;
  arrival_.cancel();
  ddos_start_.cancel();
  ddos_stop_.cancel();
  if (flooder_) flooder_->stop();
  // Free every record with nothing in flight. Active flows (kPacing,
  // kRtoWait) run on; their completion/abort path sees draining_ and
  // releases the record instead of starting the next flow.
  for (std::uint32_t i = 0; i < pool_.capacity(); ++i) {
    switch (pool_.state[i]) {
      case FlowState::kPending:
      case FlowState::kThinking:
        if (pool_.timer[i] != 0) {
          wheel_.cancel(pool_.timer[i]);
          pool_.timer[i] = 0;
        }
        ++stats_.drained_records;
        ++stats_.sessions_finished;  // drained out counts as finished
        pool_.release(i);
        break;
      default:
        break;
    }
  }
  fifo_head_ = fifo_tail_ = FlowPool::kNil;  // all pending records freed
}

void WorkloadEngine::export_metrics() const {
  auto& metrics = obs::global().metrics;
  const auto set = [&metrics](const char* name, std::uint64_t value) {
    metrics.counter(name).inc(value);
  };
  set("workload.sessions_started", stats_.sessions_started);
  set("workload.sessions_finished", stats_.sessions_finished);
  set("workload.flows_started", stats_.flows_started);
  set("workload.flows_completed", stats_.flows_completed);
  set("workload.flows_aborted", stats_.flows_aborted);
  set("workload.packets_offered", stats_.packets_offered);
  set("workload.packets_delivered", stats_.packets_delivered);
  set("workload.packets_stale", stats_.packets_stale);
  set("workload.retransmit_packets", stats_.retransmit_packets);
  set("workload.pool_exhausted", stats_.pool_exhausted);
  set("workload.admission_waits", stats_.admission_waits);
  set("workload.pacing_skips", stats_.pacing_skips);
  set("workload.drained_records", stats_.drained_records);
  set("workload.pool_peak_live", pool_.peak_live());
  set("workload.timer_scheduled", wheel_.scheduled());
  set("workload.timer_fired", wheel_.fired());
  set("workload.timer_cancelled", wheel_.cancelled());
  set("workload.timer_cascades", wheel_.cascades());
}

}  // namespace netco::workload
