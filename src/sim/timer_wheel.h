// Hierarchical timer wheel for the dominant short-horizon timer class.
//
// The workload engine schedules and cancels millions of per-flow timers
// (pacing ticks, retransmit timeouts, session think times). On the binary
// heap every one of those is an O(log n) push plus a tombstone that has to
// bubble to the top or be compacted away; on the wheel both schedule and
// cancel are O(1) pointer splices into a slot of a 4-level × 256-slot
// wheel (Varghese & Lauck), with per-level occupancy bitmaps so finding
// the next due tick is a handful of bit scans.
//
// Layering and determinism contract:
//  * The wheel does NOT replace the simulator — it rides on it. A single
//    "anchor" event is kept scheduled at the next interesting tick (next
//    due level-0 slot, next cascade boundary with a non-empty slot, or
//    the next overflow rescan boundary); firing it advances the wheel,
//    cascades boundary slots down, and runs the due timers. Between
//    anchors the wheel costs the simulator nothing, no matter how many
//    timers it holds.
//  * Deadlines are quantized to the tick: a timer never fires early and
//    fires at most one tick late (the deadline is rounded *up* to the
//    next tick boundary; a due-now deadline rounds to the next tick).
//  * Fire order is heap-equivalent: timers due in the same tick run
//    sorted by (raw deadline ns, schedule sequence), which is exactly the
//    simulator's (time, seq) order. With tick = 1 ns the wheel is
//    observationally identical to Simulator::schedule_at — the
//    differential test in tests/timer_wheel_test.cpp locks this in.
//  * All state transitions happen inside simulator events, so a wheel
//    driven by a deterministic event program is itself deterministic.
//
// Zero per-timer allocation: records live in a flat slab recycled through
// a free list; cancellation is a generation check (same scheme as the
// simulator's CancelSlab and the compare's CompareStore). The
// callback is a plain function pointer + context pointer + 64-bit
// argument — no std::function, nothing to destroy.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace netco::sim {

/// Wheel construction parameters.
struct TimerWheelConfig {
  /// Tick quantum. Level 0 spans 256 ticks; the whole wheel spans 2^32
  /// ticks, beyond which timers sit in the overflow bucket until a rescan
  /// boundary pulls them in. 100 µs serves millisecond-scale flow timers
  /// with ≤ 0.1 ms lateness; tests use 1 ns for exact heap equivalence.
  Duration tick = Duration::microseconds(100);
};

/// O(1)-schedule/cancel timer facility layered on a Simulator.
class TimerWheel {
 public:
  /// Timer callback: a POD triple so a timer record never owns state.
  using TimerFn = void (*)(void* ctx, std::uint64_t arg);

  /// Opaque handle: (generation << 32) | slab index. Stale handles (fired
  /// or cancelled timers, recycled slots) never match a live timer.
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimerId = 0;

  TimerWheel(Simulator& simulator, TimerWheelConfig config = {});
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Schedules `fn(ctx, arg)` at absolute time `at` (>= now), quantized up
  /// to the next tick boundary. O(1).
  TimerId schedule_at(TimePoint at, TimerFn fn, void* ctx, std::uint64_t arg);

  /// Schedules `fn(ctx, arg)` after `delay` (>= 0) from now. O(1).
  TimerId schedule_after(Duration delay, TimerFn fn, void* ctx,
                         std::uint64_t arg);

  /// Cancels a pending timer. O(1); returns false if `id` is stale (the
  /// timer already fired, was cancelled, or the slot was recycled).
  bool cancel(TimerId id) noexcept;

  /// True while `id` names a scheduled, uncancelled timer.
  [[nodiscard]] bool pending(TimerId id) const noexcept;

  /// The configured tick quantum.
  [[nodiscard]] Duration tick() const noexcept {
    return Duration::nanoseconds(static_cast<std::int64_t>(tick_ns_));
  }

  // --- telemetry ---------------------------------------------------------
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return scheduled_; }
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }
  /// Boundary cascades performed (higher-level slots redistributed).
  [[nodiscard]] std::uint64_t cascades() const noexcept { return cascades_; }
  /// Timers currently parked beyond the 2^32-tick horizon.
  [[nodiscard]] std::size_t overflow_size() const noexcept {
    return overflow_count_;
  }
  /// Capacity of the record slab (high-water mark of concurrent timers).
  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return records_.size();
  }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint64_t kSlots = 256;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Bucket ids: level * 256 + slot, then one overflow bucket.
  static constexpr std::uint16_t kOverflowBucket =
      static_cast<std::uint16_t>(kLevels * kSlots);
  static constexpr std::uint16_t kNoBucket = 0xFFFF;
  static constexpr std::uint64_t kNoTick = UINT64_MAX;

  struct Record {
    std::int64_t deadline_ns = 0;  ///< raw (unquantized) deadline
    std::uint64_t seq = 0;         ///< schedule order, breaks ties
    TimerFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
    std::uint32_t gen = 1;   ///< bumped on fire/cancel; 0 never used
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint16_t bucket = kNoBucket;  ///< kNoBucket = free / not queued
  };

  /// A due timer copied out of its record before release, so callbacks may
  /// freely schedule into (and recycle) the slab.
  struct Due {
    std::int64_t deadline_ns;
    std::uint64_t seq;
    TimerFn fn;
    void* ctx;
    std::uint64_t arg;
  };

  TimerId do_schedule(std::int64_t deadline_ns, TimerFn fn, void* ctx,
                      std::uint64_t arg);
  void place(std::uint32_t index, std::uint64_t due_tick);
  void unlink(std::uint32_t index) noexcept;
  void release(std::uint32_t index) noexcept;
  /// Detaches and returns the head of a bucket's list (clears its bitmap).
  std::uint32_t detach_bucket(std::uint16_t bucket) noexcept;
  void on_anchor();
  void fire_due(std::uint64_t t);
  void cascade_at(std::uint64_t t);
  void update_anchor();
  void arm_anchor(std::uint64_t t);
  [[nodiscard]] std::uint64_t next_interesting_tick() const noexcept;
  /// First set slot of `level` strictly after position `from` in circular
  /// order, as a distance in [1, 256]; 0 when the level is empty.
  [[nodiscard]] std::uint64_t next_slot_distance(
      int level, std::uint64_t from) const noexcept;
  [[nodiscard]] std::uint64_t due_tick_of(std::int64_t deadline_ns)
      const noexcept;

  Simulator& sim_;
  std::uint64_t tick_ns_;
  std::uint64_t now_tick_ = 0;   ///< wheel position (lags sim time between anchors)
  std::uint64_t next_seq_ = 0;

  std::vector<Record> records_;
  std::vector<std::uint32_t> free_;
  std::array<std::uint32_t, kLevels * kSlots + 1> head_;
  /// Occupancy bitmaps: bits_[level][slot / 64] bit (slot % 64).
  std::array<std::array<std::uint64_t, 4>, kLevels> bits_{};
  std::vector<Due> scratch_;

  EventHandle anchor_;
  std::uint64_t anchor_tick_ = 0;
  bool anchor_armed_ = false;

  std::size_t active_ = 0;
  std::size_t overflow_count_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t cascades_ = 0;
};

}  // namespace netco::sim
