// WorkloadEngine: drives a user population through the combiner.
//
// Sessions arrive as a Poisson process shaped by the configured scenario;
// each session cycles flow → think → flow over a flat FlowPool record.
// All per-flow timers (pacing, completion check, think time) run on a
// sim::TimerWheel; the arrival process itself runs on the raw simulator
// heap because it needs sub-tick resolution at high rates (one recurring
// event, so the heap cost is constant).
//
// Determinism: every state transition happens inside a simulator event and
// every random draw comes from the engine's seeded Rng, so a workload run
// is bit-reproducible exactly like the classic soak — same seed, same
// trace stream, same metrics snapshot.
//
// Emission mimics host::UdpSender: datagrams are charged to the sending
// host's CPU (udp_tx cost) with a bounded engine-wide CPU backlog, so an
// overdriven population falls behind its offered load the way a real
// sender does instead of building unbounded queues. Each datagram carries
// (record index, flow token, seq); the receiving host's handler credits
// the flow only when the token matches the record's current flow, so late
// deliveries into a recycled record are counted as stale, never credited.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "adversary/behaviors.h"
#include "common/rng.h"
#include "host/host.h"
#include "obs/observability.h"
#include "sim/timer_wheel.h"
#include "workload/config.h"
#include "workload/flow_pool.h"

namespace netco::workload {

/// Raw engine counters (plain struct so circuits can read them from any
/// thread after the run; the same values are exported as obs metrics).
struct WorkloadStats {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_finished = 0;  ///< completed or drained out
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_aborted = 0;      ///< gave up after 6 retries
  std::uint64_t packets_offered = 0;    ///< datagrams handed to the wire
  std::uint64_t packets_delivered = 0;  ///< credited to a live flow
  std::uint64_t packets_stale = 0;      ///< arrived for a dead/recycled flow
  std::uint64_t retransmit_packets = 0;
  std::uint64_t pool_exhausted = 0;     ///< sessions dropped, pool full
  std::uint64_t admission_waits = 0;    ///< flows that queued for a slot
  std::uint64_t pacing_skips = 0;       ///< bursts clipped by CPU backlog
  std::uint64_t drained_records = 0;    ///< idle records freed by the drain
};

/// DDoS-burst wiring: the datapath (a replica switch) the flooder runs on
/// plus its forged-traffic parameters.
struct DdosHook {
  device::Datapath* datapath = nullptr;
  adversary::DosFlooder::Config config;
};

class WorkloadEngine {
 public:
  /// Wire format: flow record index + flow token + datagram seq.
  static constexpr std::size_t kMinPayload = 12;

  /// Binds UDP port 5002 on `dst`; emits from `src`. The hook is
  /// required (and only read) for Scenario::kDdosBurst.
  WorkloadEngine(host::Host& src, host::Host& dst, WorkloadConfig config,
                 std::uint64_t seed, std::optional<DdosHook> ddos = {});
  ~WorkloadEngine();

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  /// Arms the arrival process (and the DDoS burst window, if configured).
  void start();

  /// Stops arrivals and frees every record with no traffic in flight
  /// (pending/thinking sessions). Active flows run on to completion or
  /// abort; poll idle() to learn when the pool is empty.
  void begin_drain();

  /// True once every record has been released (valid after begin_drain()).
  [[nodiscard]] bool idle() const noexcept { return pool_.live() == 0; }

  [[nodiscard]] const WorkloadStats& stats() const noexcept { return stats_; }

  /// Copies the raw counters into obs::global().metrics as workload.*
  /// counters (call once, after the run settles).
  void export_metrics() const;

  [[nodiscard]] const FlowPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const sim::TimerWheel& wheel() const noexcept {
    return wheel_;
  }
  /// Forged packets the DDoS burst injected (0 in other scenarios).
  [[nodiscard]] std::uint64_t ddos_emitted() const noexcept {
    return flooder_ ? flooder_->emitted() : 0;
  }

 private:
  /// In-flight datagrams allowed in the sender CPU queue before pacing
  /// bursts are clipped (engine-wide, mirroring UdpSender's backlog cap).
  static constexpr std::size_t kTxBacklogLimit = 64;

  static void on_timer(void* ctx, std::uint64_t arg);

  void schedule_arrival();
  void on_arrival();
  void start_session();
  void begin_flow(std::uint32_t index);
  void activate(std::uint32_t index);
  void admit_from_queue();
  void do_pace(std::uint32_t index);
  void on_rto(std::uint32_t index);
  void on_think(std::uint32_t index);
  void complete_flow(std::uint32_t index);
  void end_flow(std::uint32_t index);
  void emit_packet(std::uint32_t index);
  void on_datagram(const net::ParsedPacket& parsed, const net::Packet& packet);

  [[nodiscard]] double arrival_rate_at(sim::TimePoint t) const noexcept;
  [[nodiscard]] std::uint32_t draw_flow_count();
  [[nodiscard]] std::uint32_t draw_flow_packets();

  host::Host& src_;
  host::Host& dst_;
  WorkloadConfig config_;
  Rng rng_;
  FlowPool pool_;
  sim::TimerWheel wheel_;

  // Intrusive admission FIFO over FlowPool::fifo_next.
  std::uint32_t fifo_head_ = FlowPool::kNil;
  std::uint32_t fifo_tail_ = FlowPool::kNil;
  std::uint32_t active_count_ = 0;

  std::uint32_t next_token_ = 1;  ///< 0 = never a live flow
  std::size_t tx_backlog_ = 0;
  bool running_ = false;
  bool draining_ = false;

  sim::EventHandle arrival_;
  std::unique_ptr<adversary::DosFlooder> flooder_;
  sim::EventHandle ddos_start_;
  sim::EventHandle ddos_stop_;

  WorkloadStats stats_;
  obs::Histogram& fct_ms_;
  obs::Histogram& flow_size_pkts_;

  /// Liveness token for queued CPU jobs (same pattern as UdpSender).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace netco::workload
