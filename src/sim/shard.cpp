#include "sim/shard.h"

#include <algorithm>
#include <condition_variable>
#include <thread>
#include <tuple>
#include <utility>

#include "common/assert.h"

namespace netco::sim {

// ---------------------------------------------------------------------------
// ShardChannel

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ShardChannel::ShardChannel(std::size_t from, std::size_t to,
                           Duration lookahead, std::size_t capacity)
    : from_(from),
      to_(to),
      lookahead_(lookahead),
      ring_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(ring_.size() - 1) {
  NETCO_ASSERT_MSG(lookahead > Duration::zero(),
                   "cross-shard lookahead must be positive (a zero-latency "
                   "cycle deadlocks conservative synchronization)");
}

void ShardChannel::post(TimePoint send_time, TimePoint deliver_at,
                        Callback fn) {
  NETCO_ASSERT_MSG(
      deliver_at >= send_time + lookahead_,
      "cross-shard delivery undercuts the channel's declared lookahead");
  Message msg{deliver_at.ns(), next_seq_++, std::move(fn)};
  const std::size_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t head = head_.load(std::memory_order_acquire);
  if (tail - head < ring_.size()) {
    ring_[tail & mask_] = std::move(msg);
    tail_.store(tail + 1, std::memory_order_release);
    return;
  }
  // Ring full mid-round: overflow. The consumer only drains at the
  // barrier, so every overflow seq exceeds every ring seq — pop() keeps
  // per-channel order by draining the ring first.
  std::lock_guard<std::mutex> lock(overflow_mutex_);
  overflow_.push_back(std::move(msg));
}

bool ShardChannel::pop(Message& out) {
  const std::size_t head = head_.load(std::memory_order_relaxed);
  const std::size_t tail = tail_.load(std::memory_order_acquire);
  if (head != tail) {
    out = std::move(ring_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }
  std::lock_guard<std::mutex> lock(overflow_mutex_);
  if (overflow_.empty()) return false;
  out = std::move(overflow_.front());
  overflow_.pop_front();
  return true;
}

// ---------------------------------------------------------------------------
// ShardedSimulator

struct ShardedSimulator::CellState {
  CellFactory factory;
  std::unique_ptr<ShardCell> cell;
  TimePoint committed;        ///< time the cell has fully executed to
  TimePoint cap;              ///< cell's own next-window cap (from on_window)
  TimePoint horizon;          ///< this round's conservative bound
  bool runnable = false;      ///< advances this round
  bool finished = false;      ///< cap reached done_marker()
  int worker = 0;             ///< pinned worker index
  std::vector<const ShardChannel*> in;  ///< channels delivering into this cell
};

/// Barrier state shared between the coordinator and the workers. A plain
/// generation-counter design: the coordinator bumps `round` to release
/// the workers, each worker bumps `arrived` when its cells are done, and
/// the mutex hands the memory written on one side to the other.
struct ShardedSimulator::WorkerSync {
  std::mutex mutex;
  std::condition_variable worker_cv;
  std::condition_variable coordinator_cv;
  std::uint64_t round = 0;    ///< current release generation
  int arrived = 0;            ///< workers finished with the current phase
  bool stop = false;          ///< no more rounds: finalize and exit
  int workers = 0;
};

ShardedSimulator::ShardedSimulator(Options options)
    : options_(options), sync_(std::make_unique<WorkerSync>()) {
  NETCO_ASSERT(options_.workers >= 1);
}

ShardedSimulator::~ShardedSimulator() = default;

std::size_t ShardedSimulator::add_cell(CellFactory factory) {
  NETCO_ASSERT_MSG(!ran_, "add_cell after run()");
  NETCO_ASSERT(static_cast<bool>(factory));
  auto state = std::make_unique<CellState>();
  state->factory = std::move(factory);
  cells_.push_back(std::move(state));
  return cells_.size() - 1;
}

ShardChannel& ShardedSimulator::connect(std::size_t from, std::size_t to,
                                        Duration lookahead) {
  NETCO_ASSERT_MSG(!ran_, "connect after run()");
  NETCO_ASSERT(from < cells_.size() && to < cells_.size() && from != to);
  channels_.push_back(std::make_unique<ShardChannel>(
      from, to, lookahead, options_.channel_capacity));
  ShardChannel& channel = *channels_.back();
  cells_[to]->in.push_back(&channel);
  return channel;
}

TimePoint ShardedSimulator::committed(std::size_t cell) const {
  NETCO_ASSERT(cell < cells_.size());
  return cells_[cell]->committed;
}

void ShardedSimulator::worker_main(int worker) {
  // Construct and start this worker's cells, in ascending cell order.
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellState& state = *cells_[i];
    if (state.worker != worker) continue;
    state.cell = state.factory();
    state.cell->simulator().bind_owner_thread();
    state.cap = state.cell->start();
    state.committed = state.cell->simulator().now();
  }

  std::uint64_t seen_round = 0;
  {
    std::unique_lock<std::mutex> lock(sync_->mutex);
    ++sync_->arrived;
    sync_->coordinator_cv.notify_one();
  }

  while (true) {
    {
      std::unique_lock<std::mutex> lock(sync_->mutex);
      sync_->worker_cv.wait(lock, [&] {
        return sync_->stop || sync_->round > seen_round;
      });
      if (sync_->stop) break;
      seen_round = sync_->round;
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      CellState& state = *cells_[i];
      if (state.worker != worker || !state.runnable) continue;
      state.cell->before_window();
      state.cell->simulator().run_until(state.horizon);
      state.cap = state.cell->on_window(state.horizon);
    }
    {
      std::unique_lock<std::mutex> lock(sync_->mutex);
      ++sync_->arrived;
      sync_->coordinator_cv.notify_one();
    }
  }

  // Shutdown: harvest results, then tear the cells down on their own
  // thread (destructors cancel events — EventHandle asserts the owner).
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellState& state = *cells_[i];
    if (state.worker != worker || state.cell == nullptr) continue;
    state.cell->finalize();
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellState& state = *cells_[i];
    if (state.worker == worker) state.cell.reset();
  }
}

bool ShardedSimulator::plan_round() {
  bool any_alive = false;
  bool any_runnable = false;
  for (auto& state_ptr : cells_) {
    CellState& state = *state_ptr;
    state.runnable = false;
    if (state.finished) continue;
    if (state.cap == ShardCell::done_marker()) {
      state.finished = true;
      continue;
    }
    any_alive = true;
    TimePoint horizon = state.cap;
    for (const ShardChannel* channel : state.in) {
      const CellState& src = *cells_[channel->from()];
      if (src.finished) continue;  // a finished cell sends nothing more
      horizon = std::min(horizon, src.committed + channel->lookahead());
    }
    state.horizon = horizon;
    state.runnable = horizon > state.committed;
    any_runnable = any_runnable || state.runnable;
  }
  if (!any_alive) return false;
  // Progress guarantee: the globally least-committed alive cell always
  // clears its neighbor bounds (every lookahead is positive), so a stuck
  // round means a cap <= committed bug in a cell, not a protocol state.
  NETCO_ASSERT_MSG(any_runnable,
                   "conservative synchronization cannot advance any shard");
  return true;
}

void ShardedSimulator::drain_channels() {
  // (deliver time, channel id, per-channel seq) is a total order over all
  // in-flight messages, so scheduling in that order assigns receiver-side
  // tie-break sequence numbers identically for every worker count.
  struct Arrival {
    std::int64_t deliver_ns;
    std::size_t channel_id;
    std::uint64_t seq;
    Callback fn;
  };
  std::vector<std::vector<Arrival>> arrivals(cells_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    ShardChannel& channel = *channels_[c];
    ShardChannel::Message msg;
    while (channel.pop(msg)) {
      arrivals[channel.to()].push_back(
          Arrival{msg.deliver_ns, c, msg.seq, std::move(msg.fn)});
    }
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (arrivals[i].empty()) continue;
    CellState& state = *cells_[i];
    if (state.finished) {
      // A finished cell's clock is frozen; a straggler message (a sender
      // still draining) could land in its past. Finished-ness is part of
      // the worker-count-invariant round schedule, so the drop set is
      // deterministic too.
      dropped_ += arrivals[i].size();
      continue;
    }
    std::sort(arrivals[i].begin(), arrivals[i].end(),
              [](const Arrival& a, const Arrival& b) {
                return std::tie(a.deliver_ns, a.channel_id, a.seq) <
                       std::tie(b.deliver_ns, b.channel_id, b.seq);
              });
    Simulator& sim = state.cell->simulator();
    for (Arrival& arrival : arrivals[i]) {
      // The lookahead argument: deliver >= sender committed + lookahead
      // >= this cell's horizon — never in its past.
      NETCO_ASSERT(arrival.deliver_ns >= sim.now().ns());
      sim.schedule_at(TimePoint::from_ns(arrival.deliver_ns),
                      std::move(arrival.fn));
      ++delivered_;
    }
  }
}

void ShardedSimulator::run() {
  NETCO_ASSERT_MSG(!ran_, "ShardedSimulator::run() is one-shot");
  ran_ = true;
  if (cells_.empty()) return;

  const int workers =
      std::min<int>(options_.workers, static_cast<int>(cells_.size()));
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i]->worker = static_cast<int>(i % static_cast<std::size_t>(workers));
  }
  sync_->workers = workers;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([this, w] { worker_main(w); });
  }

  // Wait for construction + start() on every worker.
  {
    std::unique_lock<std::mutex> lock(sync_->mutex);
    sync_->coordinator_cv.wait(lock,
                               [&] { return sync_->arrived == workers; });
    sync_->arrived = 0;
  }

  while (plan_round()) {
    {
      std::unique_lock<std::mutex> lock(sync_->mutex);
      ++sync_->round;
      sync_->worker_cv.notify_all();
      sync_->coordinator_cv.wait(lock,
                                 [&] { return sync_->arrived == workers; });
      sync_->arrived = 0;
    }
    drain_channels();
    for (auto& state_ptr : cells_) {
      CellState& state = *state_ptr;
      if (state.runnable) state.committed = state.horizon;
    }
    ++rounds_;
  }

  {
    std::unique_lock<std::mutex> lock(sync_->mutex);
    sync_->stop = true;
    sync_->worker_cv.notify_all();
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace netco::sim
