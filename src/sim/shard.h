// Sharded parallel simulation: many sim::Simulator shards, worker
// threads, conservative lookahead synchronization at link boundaries.
//
// The single-threaded Simulator caps a datacenter-scale soak at one event
// loop's throughput. ShardedSimulator runs N *cells* — independent
// combiner circuits or fat-tree pods, each owning its own Simulator —
// pinned round-robin onto worker threads, and advances them in rounds of
// a conservative (Chandy–Misra–Bryant-style) protocol:
//
//   horizon(cell) = min( cell's own window cap,
//                        min over in-channels (committed(src) + lookahead) )
//
// where a channel's lookahead is the propagation delay of the link that
// crosses the shard boundary (src/link: Channel::bind_remote). Every
// round, each cell runs its event loop up to its horizon in parallel;
// a barrier follows; cross-shard packets posted during the round are
// drained from SPSC queues and scheduled into their receiver cells; then
// committed times advance and the next round's horizons are computed.
// Because lookahead is a *lower bound* on any posted message's flight
// time, a message can never be scheduled into a cell's past — the classic
// conservative-DES safety argument, with link propagation delay as the
// natural lookahead floor.
//
// Determinism is load-bearing (golden-trace tests hash whole runs):
//  * The round/horizon schedule is computed from committed times and the
//    channel graph only — never from thread timing — so it is identical
//    for every worker count.
//  * Channel messages carry (deliver time, channel id, per-channel seq)
//    and are drained at the barrier in that canonical order, so the
//    receiving simulator assigns them the same tie-break sequence numbers
//    regardless of which thread produced them, or when.
//  * Cells never share a Simulator, an RNG stream, or an observability
//    context (scenario/circuit.h gives each fleet cell its own).
//  Hence: same seed + same cell set ⇒ bit-identical per-cell event
//  streams for ANY worker count — shards=1 reproduces the single-threaded
//  run exactly, and per-cell stream hashes merge canonically.
//
// Threading contract: a cell's Simulator, its EventHandles, and all its
// components belong to the worker the cell is pinned to (the worker calls
// bind_owner_thread(); debug builds assert). The only cross-thread
// traffic is ShardChannel::post (producer: sending cell's worker, during
// its window) and the coordinator's barrier-time drain, when all workers
// are parked.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/callback.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace netco::sim {

/// One cell of a sharded simulation: a Simulator plus the harness logic
/// that drives it window by window. All virtuals run on the owning worker
/// thread.
class ShardCell {
 public:
  virtual ~ShardCell() = default;

  /// The cell's event loop.
  [[nodiscard]] virtual Simulator& simulator() noexcept = 0;

  /// Called once before the first round; returns the first window cap
  /// (an absolute time the cell does not want to run past, e.g.
  /// committed + audit period), or done_marker() for an inert cell.
  virtual TimePoint start() = 0;

  /// Called immediately before the cell's events run in a window — the
  /// hook cells use to make their own observability context current on
  /// the worker (see scenario/circuit.h).
  virtual void before_window() {}

  /// Called after the cell advanced to `committed` (its horizon for the
  /// round). When neighbors constrained the horizon, `committed` can be
  /// *below* the cap the cell asked for — return the same cap to simply
  /// continue toward it (window bookkeeping then still happens exactly on
  /// the cell's own cap boundaries, no matter how the conservative
  /// protocol slices the windows). Once committed reaches the cap, run
  /// between-window bookkeeping (audits, sender stop checks) and return
  /// the next cap; done_marker() finishes the cell.
  virtual TimePoint on_window(TimePoint committed) = 0;

  /// Called once on the owning worker after every cell finished, before
  /// destruction (also on the owning worker): collect results here.
  virtual void finalize() {}

  /// Cap sentinel: the cell has no further work.
  [[nodiscard]] static constexpr TimePoint done_marker() noexcept {
    return TimePoint::from_ns(INT64_MAX);
  }
};

/// Single-producer/single-consumer queue carrying cross-shard deliveries.
///
/// The producer is the sending cell's worker thread (during its window);
/// the consumer is the coordinator at the barrier, when the producer is
/// parked. The fixed-capacity lock-free ring covers the steady state; a
/// mutex-guarded overflow list absorbs bursts beyond it (rare — sized by
/// per-round traffic, not total traffic). Messages are tagged with a
/// per-channel sequence number so the coordinator can drain arrivals in
/// the canonical (deliver time, channel, seq) order.
class ShardChannel {
 public:
  struct Message {
    std::int64_t deliver_ns = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  ShardChannel(std::size_t from, std::size_t to, Duration lookahead,
               std::size_t capacity);

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  /// Producer side: delivers `fn` on the receiving cell at `deliver_at`.
  /// `send_time` is the sender's current time; the conservative protocol
  /// requires deliver_at >= send_time + lookahead() (asserted — a link
  /// whose latency can undercut the declared lookahead would corrupt the
  /// synchronization, not just this message).
  void post(TimePoint send_time, TimePoint deliver_at, Callback fn);

  /// Consumer side (coordinator, barrier only): pops the oldest message.
  bool pop(Message& out);

  [[nodiscard]] std::size_t from() const noexcept { return from_; }
  [[nodiscard]] std::size_t to() const noexcept { return to_; }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }

 private:
  std::size_t from_;
  std::size_t to_;
  Duration lookahead_;

  // Ring storage: power-of-two capacity, head_ owned by the consumer,
  // tail_ by the producer (classic SPSC).
  std::vector<Message> ring_;
  std::size_t mask_;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};

  // Producer-side bookkeeping (single thread, no synchronization needed).
  std::uint64_t next_seq_ = 0;

  // Overflow path: engaged only when the ring fills mid-round. All
  // overflow seqs are larger than any ring seq at drain time (the ring
  // only empties at the barrier), so pop() drains ring-then-overflow in
  // order.
  std::mutex overflow_mutex_;
  std::deque<Message> overflow_;
};

/// The coordinator: owns the cells, the channels, and the worker pool.
///
/// Usage:
///   ShardedSimulator sharded({.workers = 4});
///   auto a = sharded.add_cell([&] { return make_pod(0); });
///   auto b = sharded.add_cell([&] { return make_pod(1); });
///   ShardChannel& ab = sharded.connect(a, b, link_propagation);
///   sharded.run();   // blocks until every cell reports done
///
/// Factories, start(), before_window(), on_window(), finalize() and cell
/// destruction all execute on the cell's pinned worker thread. run() is
/// one-shot.
class ShardedSimulator {
 public:
  struct Options {
    /// Worker threads. Cells are pinned round-robin (cell i → worker
    /// i % workers); clamped to the cell count. Determinism does not
    /// depend on this value.
    int workers = 1;
    /// Per-channel SPSC ring capacity (messages per round, not total).
    std::size_t channel_capacity = 4096;
  };

  using CellFactory = std::function<std::unique_ptr<ShardCell>()>;

  explicit ShardedSimulator(Options options);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Registers a cell; the factory runs on its pinned worker at run().
  std::size_t add_cell(CellFactory factory);

  /// Declares a cross-shard edge with conservative lookahead (the
  /// crossing link's propagation delay). lookahead must be positive —
  /// a zero-lookahead cycle would deadlock the conservative protocol.
  ShardChannel& connect(std::size_t from, std::size_t to,
                        Duration lookahead);

  /// Runs the conservative protocol until every cell reports done.
  /// One-shot; blocks the calling thread (which acts as coordinator).
  void run();

  /// Synchronization rounds executed (telemetry; worker-count invariant).
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// A cell's final committed time (valid after run()).
  [[nodiscard]] TimePoint committed(std::size_t cell) const;
  /// Messages delivered across all channels (valid after run()).
  [[nodiscard]] std::uint64_t cross_shard_messages() const noexcept {
    return delivered_;
  }
  /// Messages dropped because their receiver had already finished (a
  /// finished cell's clock no longer advances, so a late message could
  /// land in its past; senders still winding down simply lose them).
  [[nodiscard]] std::uint64_t dropped_to_finished() const noexcept {
    return dropped_;
  }

 private:
  struct CellState;
  struct WorkerSync;

  void worker_main(int worker);
  /// Computes horizons/runnability for the next round; returns false when
  /// every cell has finished.
  bool plan_round();
  /// Drains every channel, scheduling arrivals in canonical order.
  void drain_channels();

  Options options_;
  std::vector<std::unique_ptr<CellState>> cells_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::unique_ptr<WorkerSync> sync_;
  std::uint64_t rounds_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  bool ran_ = false;
};

}  // namespace netco::sim
