// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace netco::sim {
namespace {

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::milliseconds(1).ns(), 1'000'000);
  EXPECT_EQ((Duration::seconds(1) + Duration::milliseconds(500)).ms(), 1500.0);
  EXPECT_EQ((Duration::microseconds(10) - Duration::microseconds(4)).us(), 6.0);
  EXPECT_EQ((Duration::milliseconds(2) * 3).ms(), 6.0);
  EXPECT_EQ((Duration::milliseconds(9) / 3).ms(), 3.0);
  EXPECT_EQ((-Duration::seconds(1)).sec(), -1.0);
}

TEST(Time, SecondsFractionalRounds) {
  EXPECT_EQ(Duration::seconds_f(0.5).ms(), 500.0);
  EXPECT_EQ(Duration::seconds_f(1e-9).ns(), 1);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t = TimePoint::origin() + Duration::seconds(2);
  EXPECT_EQ(t.sec(), 2.0);
  EXPECT_EQ((t - TimePoint::origin()).sec(), 2.0);
  EXPECT_EQ((t - Duration::seconds(1)).sec(), 1.0);
}

TEST(Time, TransmissionTimeExact) {
  // 1500 bytes at 1 Gb/s = 12 µs.
  EXPECT_EQ(transmission_time(DataRate::gigabits_per_sec(1), 1500).us(), 12.0);
}

TEST(Time, TransmissionTimeRoundsUpNonZero) {
  // 1 byte at 10 Gb/s = 0.8 ns → rounds to 1 ns, never 0.
  EXPECT_EQ(transmission_time(DataRate::gigabits_per_sec(10), 1).ns(), 1);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::milliseconds(3), [&] { order.push_back(3); });
  sim.schedule_after(Duration::milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::milliseconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns(), Duration::milliseconds(3).ns());
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::milliseconds(1), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::milliseconds(1), [&] {
    ++fired;
    sim.schedule_after(Duration::milliseconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), Duration::milliseconds(2).ns());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::milliseconds(1), [&] { ++fired; });
  sim.schedule_after(Duration::milliseconds(10), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(5));
  EXPECT_EQ(fired, 1);
  // Clock advances to exactly the deadline even with no event there.
  EXPECT_EQ(sim.now().ns(), Duration::milliseconds(5).ns());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  EventHandle handle =
      sim.schedule_after(Duration::milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle handle =
      sim.schedule_after(Duration::milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(Duration::milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i)
    sim.schedule_after(Duration::milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, EventsPendingExcludesCancelledTombstones) {
  Simulator sim;
  EventHandle a = sim.schedule_after(Duration::milliseconds(1), [] {});
  EventHandle b = sim.schedule_after(Duration::milliseconds(2), [] {});
  sim.schedule_after(Duration::milliseconds(3), [] {});
  EXPECT_EQ(sim.events_pending(), 3u);
  EXPECT_EQ(sim.queue_size(), 3u);

  b.cancel();
  EXPECT_EQ(sim.events_pending(), 2u) << "tombstone counted as pending";
  EXPECT_EQ(sim.queue_size(), 3u) << "tombstone purged eagerly";
  b.cancel();  // idempotent: must not double-decrement
  EXPECT_EQ(sim.events_pending(), 2u);

  a.cancel();
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.queue_size(), 0u);
}

TEST(Simulator, TombstoneRunsPurgeLazilyAtPop) {
  Simulator sim;
  // A run of cancelled events ahead of the deadline plus one live event
  // far beyond it: stepping to the deadline must drain the tombstones
  // even though the live event stays queued.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(
        sim.schedule_after(Duration::milliseconds(1 + i), [] {}));
  }
  bool late_ran = false;
  sim.schedule_after(Duration::seconds(1), [&] { late_ran = true; });
  for (auto& handle : handles) handle.cancel();

  sim.run_until(TimePoint::origin() + Duration::milliseconds(100));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.queue_size(), 1u) << "tombstone run not purged at pop";
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, SlotReuseKeepsOldHandlesDead) {
  Simulator sim;
  bool first_ran = false;
  bool second_ran = false;
  EventHandle first =
      sim.schedule_after(Duration::milliseconds(1), [&] { first_ran = true; });
  first.cancel();
  sim.run();  // pops the tombstone, recycling its slot
  // The recycled slot now carries a later generation.
  EventHandle second =
      sim.schedule_after(Duration::milliseconds(1), [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());
  first.cancel();  // must not cancel the new occupant of the slot
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

TEST(Simulator, CancelAfterSimulatorDeathIsNoop) {
  EventHandle handle;
  {
    Simulator sim;
    handle = sim.schedule_after(Duration::milliseconds(1), [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(Simulator, MoveOnlyCapturesAreSupported) {
  Simulator sim;
  auto value = std::make_unique<int>(41);
  int observed = 0;
  sim.schedule_after(Duration::milliseconds(1),
                     [v = std::move(value)] { });
  sim.schedule_after(Duration::milliseconds(2),
                     [p = std::make_unique<int>(7), &observed] {
                       observed = *p;
                     });
  sim.run();
  EXPECT_EQ(observed, 7);
}

TEST(Simulator, OversizedCapturesFallBackToHeap) {
  Simulator sim;
  // A capture larger than Callback's inline budget must still work.
  std::array<std::uint64_t, 16> big{};
  big.fill(3);
  static_assert(sizeof(big) > Callback::kInlineBytes);
  std::uint64_t sum = 0;
  sim.schedule_after(Duration::milliseconds(1), [big, &sum] {
    for (const auto v : big) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 48u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(Duration::zero(), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now().ns(), 0);
}

TEST(Simulator, CancelStormKeepsQueueBounded) {
  Simulator sim;
  // Probe-churn workload: a core of long-lived events, then thousands of
  // schedule+cancel cycles against far-future deadlines (health probes
  // being rewired). Without threshold compaction the raw heap grows with
  // the total cancel count; with it, queue_size() must stay within a
  // constant factor of the live population.
  std::vector<EventHandle> live;
  for (int i = 0; i < 32; ++i) {
    live.push_back(sim.schedule_after(Duration::seconds(3600 + i), [] {}));
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<EventHandle> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(sim.schedule_after(Duration::seconds(60 + i), [] {}));
    }
    for (auto& handle : batch) handle.cancel();
  }
  EXPECT_GE(sim.compactions(), 1u) << "cancel storm never tripped compaction";
  EXPECT_EQ(sim.events_pending(), 32u);
  // Bound: live population doubled, plus the engagement floor.
  EXPECT_LE(sim.queue_size(), 2 * sim.events_pending() + 64)
      << "tombstone debt grew without bound";
}

TEST(Simulator, CompactionPreservesExecutionOrder) {
  // The same interleaved schedule/cancel program with the storm that
  // forces compactions must execute surviving events in the identical
  // (time, scheduling order) sequence as a quiet run.
  const auto program = [](Simulator& sim, bool storm) {
    std::vector<int> order;
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 40; ++i) {
      // Same-instant pairs to exercise the seq tie-break across rebuilds.
      sim.schedule_after(Duration::milliseconds(1 + i / 2),
                         [&order, i] { order.push_back(i); });
      doomed.push_back(
          sim.schedule_after(Duration::milliseconds(5 + i), [] {}));
    }
    for (auto& handle : doomed) handle.cancel();
    if (storm) {
      for (int round = 0; round < 50; ++round) {
        std::vector<EventHandle> batch;
        for (int i = 0; i < 80; ++i) {
          batch.push_back(sim.schedule_after(Duration::seconds(9), [] {}));
        }
        for (auto& handle : batch) handle.cancel();
      }
    }
    sim.run();
    return std::make_pair(order, sim.compactions());
  };
  Simulator quiet;
  Simulator stormy;
  const auto [quiet_order, quiet_compactions] = program(quiet, false);
  const auto [storm_order, storm_compactions] = program(stormy, true);
  EXPECT_EQ(quiet_compactions, 0u);
  EXPECT_GE(storm_compactions, 1u);
  EXPECT_EQ(quiet_order, storm_order)
      << "heap rebuild perturbed the (at, seq) pop order";
}

TEST(Simulator, CallbackSurvivesTheRecordGrowthItCauses) {
  // The callback grows the slot records (4096 schedules from a handful
  // of slots) and then reads its inline captures. Were it run in place
  // from its record, the reads would hit the freed old buffer, which
  // asan-ubsan reports as a heap-use-after-free.
  Simulator sim;
  const std::uint64_t a = 0xA1A1;
  const std::uint64_t b = 0xB2B2;
  const std::uint64_t c = 0xC3C3;
  std::uint64_t seen = 0;
  sim.schedule_after(Duration::milliseconds(1), [&sim, &seen, a, b, c] {
    for (int i = 0; i < 4096; ++i) {
      sim.schedule_after(Duration::milliseconds(1), [] {});
    }
    seen = a ^ b ^ c;
  });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(1));
  EXPECT_EQ(seen, a ^ b ^ c);
  EXPECT_EQ(sim.events_pending(), 4096u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 4097u);
}

TEST(Simulator, EachCallbackIsDestroyedExactlyOnce) {
  // Every callback holds one reference to `token`, so use_count() - 1 is
  // the number of callbacks still alive. A double destroy would drop it
  // below the count of live callbacks; a leak would keep it above.
  const auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 16> big{};  // past the inline budget: heap path
  static_assert(sizeof(big) > Callback::kInlineBytes);
  {
    Simulator sim;
    long during = 0;
    sim.schedule_after(Duration::milliseconds(1),
                       [token, &during] { during = token.use_count(); });
    EXPECT_EQ(token.use_count(), 2);
    sim.run();
    EXPECT_EQ(during, 2) << "the firing callback was destroyed before it ran";
    EXPECT_EQ(token.use_count(), 1) << "not destroyed after firing";

    EventHandle cancelled =
        sim.schedule_after(Duration::milliseconds(1), [token] {});
    cancelled.cancel();
    EXPECT_EQ(token.use_count(), 2) << "the tombstone holds its callback";
    sim.run();
    EXPECT_EQ(token.use_count(), 1) << "not destroyed when its tombstone popped";

    std::vector<EventHandle> doomed;
    for (int i = 0; i < 64; ++i) {
      doomed.push_back(
          sim.schedule_after(Duration::seconds(1), [token, big] {}));
    }
    EXPECT_EQ(token.use_count(), 65);
    for (EventHandle& handle : doomed) handle.cancel();
    sim.schedule_after(Duration::seconds(2), [] {});  // trips compact()
    EXPECT_EQ(sim.compactions(), 1u);
    EXPECT_EQ(sim.queue_size(), 1u);
    EXPECT_EQ(token.use_count(), 1) << "not destroyed when compact() dropped it";

    sim.schedule_after(Duration::seconds(3), [token] {});
    sim.schedule_after(Duration::seconds(3), [token, big] {});
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1)
      << "pending callbacks not destroyed with the simulator";
}

// Reference scheduler for the differential test: a std::map keyed by
// (at, seq) pops in exactly the order the simulator promises.
class ReferenceEngine {
 public:
  std::function<void(std::uint32_t)> on_fire;

  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  void schedule(std::int64_t at, std::uint32_t id) {
    const Key key{at, next_seq_++};
    queue_.emplace(key, id);
    key_of_.emplace(id, key);
  }

  void cancel(std::uint32_t id) {
    const auto it = key_of_.find(id);
    if (it == key_of_.end()) return;
    queue_.erase(it->second);
    key_of_.erase(it);
  }

  void run_until(std::int64_t deadline) {
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      const auto [key, id] = *queue_.begin();
      queue_.erase(queue_.begin());
      key_of_.erase(id);
      now_ = key.first;
      on_fire(id);
    }
    now_ = deadline;
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;
  std::map<Key, std::uint32_t> queue_;
  std::map<std::uint32_t, Key> key_of_;
  std::uint64_t next_seq_ = 0;
  std::int64_t now_ = 0;
};

class SimulatorEngine {
 public:
  std::function<void(std::uint32_t)> on_fire;

  [[nodiscard]] std::int64_t now() const { return sim_.now().ns(); }
  [[nodiscard]] std::size_t pending() const { return sim_.events_pending(); }
  [[nodiscard]] std::uint64_t compactions() const {
    return sim_.compactions();
  }

  void schedule(std::int64_t at, std::uint32_t id) {
    if (handles_.size() <= id) handles_.resize(id + 1);
    handles_[id] = sim_.schedule_at(TimePoint::from_ns(at),
                                    [this, id] { on_fire(id); });
  }

  void cancel(std::uint32_t id) { handles_[id].cancel(); }

  void run_until(std::int64_t deadline) {
    sim_.run_until(TimePoint::from_ns(deadline));
  }

 private:
  Simulator sim_;
  /// Indexed by event id. A fired or cancelled event's handle stays here,
  /// so later cancels aim stale handles at recycled slots.
  std::vector<EventHandle> handles_;
};

// A seeded random program of schedules and cancels, at the top level and
// from inside callbacks. Both engines draw the same random stream as long
// as they fire events in the same order.
template <typename Engine>
class RandomProgram {
 public:
  explicit RandomProgram(std::uint64_t seed) : rng_(seed) {
    engine_.on_fire = [this](std::uint32_t id) { fire(id); };
  }

  /// Schedules a batch at mixed horizons, cancels recent ids (about as
  /// many as it scheduled, enough to trip compact()), then runs the clock
  /// forward.
  void round() {
    const auto batch = rng_.uniform_u64(160);
    for (std::uint64_t i = 0; i < batch; ++i) schedule_new();
    const auto cancels = rng_.uniform_u64(2 * batch + 1);
    for (std::uint64_t i = 0; i < cancels; ++i) cancel_recent();
    engine_.run_until(engine_.now() + rng_.uniform_i64(0, 400));
  }

  [[nodiscard]] const std::vector<std::uint32_t>& order() const {
    return order_;
  }
  [[nodiscard]] const Engine& engine() const { return engine_; }

 private:
  void schedule_new() {
    // Same-instant ties, near events and far ones.
    const std::int64_t horizon = rng_.chance(0.2) ? 0 : rng_.uniform_i64(0, 900);
    engine_.schedule(engine_.now() + horizon, next_id_++);
  }

  void cancel_recent() {
    // Recent ids: pending ones, fired ones (a no-op) and ones whose slot
    // already holds a newer event (a stale handle; also a no-op).
    const std::uint32_t window = std::min<std::uint32_t>(next_id_, 200);
    if (window == 0) return;
    engine_.cancel(next_id_ - 1 -
                   static_cast<std::uint32_t>(rng_.uniform_u64(window)));
  }

  void fire(std::uint32_t id) {
    order_.push_back(id);
    if (next_id_ >= kMaxEvents) return;
    switch (rng_.uniform_u64(6)) {
      case 0:
      case 1:
        schedule_new();
        break;
      case 2:
        cancel_recent();
        break;
      case 3:
        // Reuses the slot this event just vacated, then aims this event's
        // stale handle at it: the new event must survive.
        schedule_new();
        engine_.cancel(id);
        break;
      case 4:
        schedule_new();
        engine_.cancel(next_id_ - 1);
        break;
      default:
        break;
    }
  }

  static constexpr std::uint32_t kMaxEvents = 20000;
  Engine engine_;
  Rng rng_;
  std::vector<std::uint32_t> order_;
  std::uint32_t next_id_ = 0;
};

TEST(Simulator, MatchesReferenceQueueOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomProgram<SimulatorEngine> sim(seed);
    RandomProgram<ReferenceEngine> reference(seed);
    for (int round = 0; round < 60; ++round) {
      sim.round();
      reference.round();
      ASSERT_EQ(sim.order(), reference.order())
          << "seed " << seed << " round " << round;
      ASSERT_EQ(sim.engine().pending(), reference.engine().pending())
          << "seed " << seed << " round " << round;
    }
    EXPECT_GE(sim.engine().compactions(), 1u)
        << "seed " << seed << " never exercised compact()";
  }
}

}  // namespace
}  // namespace netco::sim
