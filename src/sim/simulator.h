// Deterministic discrete-event simulator.
//
// Single-threaded, ns-resolution event loop. Events scheduled at the same
// instant fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which makes every run bit-reproducible for a given
// seed and event program.
//
// Hot-path design: scheduling an event performs zero heap allocations in
// the common case. The binary heap orders 24-byte (time, seq, slot) keys;
// each event's callback (see sim/callback.h) stays put in the slot record
// of a slab the simulator owns, next to the slot's generation counter, so
// a sift step moves a key and never relocates a callback. Cancellation is
// that generation counter: an EventHandle is (slab, slot, generation), and
// a cancelled or fired event simply stops matching its slot's generation.
// Cancelled events stay in the heap as tombstones until they reach the
// top, where they are purged without executing — unless the tombstone
// debt outgrows the live population, in which case a compaction pass
// rebuilds the heap without them (cancel-heavy workloads like health
// probe churn would otherwise grow the raw heap without bound).
//
// Threading: a Simulator is single-threaded. When it runs as a shard of a
// ShardedSimulator (sim/shard.h) it is *owned* by one worker thread;
// bind_owner_thread() records that owner and EventHandle operations then
// assert (debug builds) that they run on it — an EventHandle must never
// cross a shard boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sim/callback.h"
#include "sim/time.h"

namespace netco::sim {

namespace detail {

/// Slot slab: one record per event slot, holding the slot's generation
/// counter and its queued event's callback. A scheduled event and its
/// handles agree on (slot, generation); bumping the counter invalidates
/// both. Slots are recycled through a free list, so a simulator's steady
/// state performs no allocation per event.
struct CancelSlab {
  struct Record {
    std::uint64_t generation = 0;
    /// The generation the queued event was armed under; it differs from
    /// `generation` once the event is cancelled (a tombstone).
    std::uint64_t armed = 0;
    /// The queued event's callback; empty while the slot is free.
    Callback fn;
  };
  std::vector<Record> records;
  std::vector<std::uint32_t> free_slots;
  std::size_t live = 0;  ///< scheduled, not yet cancelled or fired
  /// Owning thread when the simulator runs as a shard (sim/shard.h);
  /// default-constructed id = unbound (single-threaded use). Atomic only
  /// so the debug assertion itself is race-free; the slab is otherwise
  /// strictly single-threaded.
  std::atomic<std::thread::id> owner{std::thread::id{}};

  /// Debug check: the calling thread may touch this slab.
  [[nodiscard]] bool owned_by_caller() const noexcept {
    const std::thread::id id = owner.load(std::memory_order_relaxed);
    return id == std::thread::id{} || id == std::this_thread::get_id();
  }

  /// Reserves a slot; its current generation labels the new event.
  std::uint32_t acquire() {
    if (!free_slots.empty()) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      return slot;
    }
    records.emplace_back();
    return static_cast<std::uint32_t>(records.size() - 1);
  }

  /// True while (slot, gen) names a scheduled, uncancelled event.
  [[nodiscard]] bool matches(std::uint32_t slot,
                             std::uint64_t gen) const noexcept {
    return records[slot].generation == gen;
  }

  /// True once the event queued in `slot` was cancelled (a tombstone).
  [[nodiscard]] bool cancelled(std::uint32_t slot) const noexcept {
    return records[slot].generation != records[slot].armed;
  }

  /// Invalidates (slot, gen); returns false if it already was.
  bool invalidate(std::uint32_t slot, std::uint64_t gen) noexcept {
    if (!matches(slot, gen)) return false;
    ++records[slot].generation;
    return true;
  }

  /// Returns a slot to the free list once its event left the queue. A
  /// tombstone's callback is destroyed here; a fired one was moved out.
  void release(std::uint32_t slot) {
    records[slot].fn = Callback{};
    free_slots.push_back(slot);
  }
};

}  // namespace detail

/// Cancellation handle for a scheduled event.
///
/// Holds a weak reference to the simulator's cancellation slab; cancelling
/// after the event fired (or after the simulator died) is a harmless
/// no-op. Copyable, and copying never allocates.
class EventHandle {
 public:
  EventHandle() noexcept = default;

  /// Prevents the event callback from running. Idempotent.
  void cancel() noexcept;

  /// True if the event is still scheduled and not cancelled.
  [[nodiscard]] bool pending() const noexcept;

 private:
  friend class Simulator;
  EventHandle(std::weak_ptr<detail::CancelSlab> slab, std::uint32_t slot,
              std::uint64_t generation) noexcept
      : slab_(std::move(slab)), slot_(slot), generation_(generation) {}

  std::weak_ptr<detail::CancelSlab> slab_;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// The event loop. One instance per simulated network.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Root RNG; components should carve off independent streams via split().
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  EventHandle schedule_at(TimePoint at, Callback fn);

  /// Schedules `fn` to run `delay` from now (delay >= 0).
  EventHandle schedule_after(Duration delay, Callback fn);

  /// Runs events until the queue drains or `stop()` is called.
  void run();

  /// Runs events with timestamp <= `deadline`; afterwards now() == deadline
  /// (unless stopped earlier).
  void run_until(TimePoint deadline);

  /// Runs events for `span` of simulated time from the current instant.
  void run_for(Duration span) { run_until(now_ + span); }

  /// Requests the current run()/run_until() call to return after the
  /// in-flight event completes.
  void stop() noexcept { stopped_ = true; }

  /// Number of events executed since construction (for tests/telemetry).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of *live* events scheduled and not yet cancelled or fired.
  /// Cancelled tombstones are excluded (they still sit in the queue until
  /// lazily purged, see queue_size()).
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return slab_->live;
  }

  /// Raw heap occupancy, including cancelled tombstones that have not
  /// bubbled up to the top (or been compacted away) yet.
  /// queue_size() - events_pending() is the current tombstone debt.
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return queue_.size();
  }

  /// Tombstone compactions performed so far (telemetry/tests). A
  /// compaction runs when a schedule finds the tombstone debt larger than
  /// the live population (ratio > 1/2 of the raw heap), so cancel-heavy
  /// workloads keep queue_size() within a constant factor of
  /// events_pending() instead of growing without bound.
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

  /// Declares the calling thread the owner of this simulator (shard
  /// pinning, see sim/shard.h). EventHandle::cancel()/pending() and run()
  /// assert (debug builds) they execute on the owner once bound.
  void bind_owner_thread() noexcept {
    slab_->owner.store(std::this_thread::get_id(),
                       std::memory_order_relaxed);
  }

 private:
  /// A queued event's heap key; its callback waits in the slot's record.
  struct Key {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops and runs a single event; returns false if no runnable event
  /// remains at or before `deadline`. Purges tombstone runs encountered at
  /// the top of the queue (even past the deadline — they will never run).
  bool step(TimePoint deadline);

  /// Rebuilds the heap without tombstones, returning their slots to the
  /// free list. Triggered from schedule_at; deterministic (depends only on
  /// the event program, never on wall time or thread scheduling).
  void compact();

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
  bool stopped_ = false;
  /// Binary heap of keys ordered by Later (std::push_heap/pop_heap). A raw
  /// vector rather than std::priority_queue so compact() can rebuild it in
  /// place.
  std::vector<Key> queue_;
  std::shared_ptr<detail::CancelSlab> slab_;
  Rng rng_;
};

}  // namespace netco::sim
