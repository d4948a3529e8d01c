// Hot-path microbench: packet fan-out copy cost, hash memoization, and
// scheduler churn in isolation, with the pre-change baseline *recorded in
// the same run* so BENCH_hotpath.json carries before/after numbers from
// one machine at one moment.
//
// Baselines reconstruct what the code paid before the zero-copy rework:
//   * fan-out: k deep payload copies + k full FNV-1a hashes per datagram
//     (what the hub + compare pipeline cost when Packet owned its vector);
//   * hash: a full FNV-1a pass per call (no memoization);
//   * scheduler: a std::function + shared_ptr<bool> cancellation flag per
//     event — the two heap allocations the old Simulator::schedule_at made;
//   * timer churn: the binary heap itself — schedule+cancel of short-
//     horizon flow timers against a standing population, which the
//     hierarchical timer wheel replaces with O(1) slot splices.
//
// Verdict (exit status): 0 iff the k=3 duplicate+hash fan-out AND the
// wheel's schedule+cancel churn both show at least a 2x reduction versus
// the baselines measured in the same run.
//
// Env knobs:
//   NETCO_BENCH_QUICK=1   — short CI-sized timing windows
//   NETCO_HOTPATH_OUT=path — summary path (default BENCH_hotpath.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"

namespace {

using namespace netco;
using Clock = std::chrono::steady_clock;

/// Prevents the optimizer from deleting a computed value.
std::uint64_t g_sink = 0;
inline void consume(std::uint64_t v) noexcept { g_sink ^= v; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body(batch)` in batches until `min_seconds` of wall time elapsed;
/// returns ns per item.
template <typename Body>
double time_per_item(double min_seconds, std::uint64_t batch, Body&& body) {
  // Warmup pass so first-touch allocation and cache effects settle.
  body(batch);
  std::uint64_t items = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    body(batch);
    items += batch;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(items);
}

net::Packet random_packet(Rng& rng, std::size_t bytes) {
  std::vector<std::byte> payload(bytes);
  for (auto& b : payload) {
    b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  }
  return net::Packet(std::move(payload));
}

struct Comparison {
  double baseline_ns = 0.0;
  double optimized_ns = 0.0;
  [[nodiscard]] double speedup() const noexcept {
    return optimized_ns > 0.0 ? baseline_ns / optimized_ns : 0.0;
  }
};

/// k-fold duplicate+hash per datagram: the hub fan-out plus the compare's
/// per-copy key computation.
Comparison bench_fanout(double min_seconds, int k, std::size_t payload) {
  Rng rng(42);
  const net::Packet packet = random_packet(rng, payload);

  Comparison result;
  // Pre-change model: every copy is a deep payload copy, every copy is
  // hashed from scratch.
  result.baseline_ns = time_per_item(min_seconds, 2048, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        const auto view = packet.bytes();
        net::Packet copy(std::vector<std::byte>(view.begin(), view.end()));
        consume(fnv1a(copy.bytes()));
      }
    }
  });
  // Post-change path: copying is a refcount bump; content_hash() memoizes
  // in the shared buffer, so the k copies share one computation (already
  // done by the warm packet).
  result.optimized_ns = time_per_item(min_seconds, 2048, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        net::Packet copy = packet;  // COW
        consume(copy.content_hash());
      }
    }
  });
  return result;
}

/// Repeated content hashing of one (large) packet: trace emit + compare
/// key + sampling decision all ask for the same id.
Comparison bench_hash_memo(double min_seconds, std::size_t payload) {
  Rng rng(43);
  const net::Packet packet = random_packet(rng, payload);

  Comparison result;
  result.baseline_ns = time_per_item(min_seconds, 4096, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      consume(fnv1a(packet.bytes()));  // pre-change: full pass every call
    }
  });
  result.optimized_ns = time_per_item(min_seconds, 4096, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      consume(packet.content_hash());  // memoized
    }
  });
  return result;
}

/// Schedule + dispatch cost per event, with a packet-sized capture (the
/// link/switch/hub closures all carry one COW packet handle).
Comparison bench_scheduler(double min_seconds, std::size_t payload) {
  Rng rng(44);
  const net::Packet packet = random_packet(rng, payload);
  constexpr std::uint64_t kEventsPerBatch = 8192;

  Comparison result;
  // Pre-change model: the event record carried a std::function plus a
  // shared_ptr<bool> cancellation flag — two heap allocations per event.
  result.baseline_ns =
      time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        for (std::uint64_t i = 0; i < n; ++i) {
          auto cancelled = std::make_shared<bool>(false);
          std::function<void()> fn = [p = packet, cancelled] {
            if (!*cancelled) consume(p.size());
          };
          simulator.schedule_after(sim::Duration::nanoseconds(1),
                                   std::move(fn));
        }
        simulator.run();
      });
  result.optimized_ns =
      time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        for (std::uint64_t i = 0; i < n; ++i) {
          simulator.schedule_after(sim::Duration::nanoseconds(1),
                                   [p = packet] { consume(p.size()); });
        }
        simulator.run();
      });
  return result;
}

/// Schedule + dispatch at the heap depth the workloads keep (their
/// sim.queue_size p50 runs 9-34, against the 8192 same-instant events of
/// bench_scheduler): 32 events stay pending at mixed horizons, and each
/// fired event schedules its successor until the batch is spent.
double bench_steady_state(double min_seconds, std::size_t payload) {
  Rng rng(45);
  const net::Packet packet = random_packet(rng, payload);
  constexpr std::uint64_t kEventsPerBatch = 8192;
  constexpr std::uint64_t kPending = 32;
  // Three in four delays are link-scale (up to 2 us), the rest
  // timer-scale (up to 5 ms); drawn up front so the timed loop draws none.
  std::vector<sim::Duration> delays(1024);
  for (sim::Duration& delay : delays) {
    delay = sim::Duration::nanoseconds(
        rng.chance(0.75) ? rng.uniform_i64(1, 2'000)
                         : rng.uniform_i64(100'000, 5'000'000));
  }
  struct Loop {
    sim::Simulator simulator{1};
    const std::vector<sim::Duration>* delays = nullptr;
    std::uint64_t next_delay = 0;
    std::uint64_t unscheduled = 0;

    void arm(const net::Packet& p) {
      --unscheduled;
      simulator.schedule_after(
          (*delays)[next_delay++ % delays->size()], [this, p] {
            consume(p.size());
            if (unscheduled > 0) arm(p);
          });
    }
  };
  return time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
    Loop loop;
    loop.delays = &delays;
    loop.unscheduled = n;
    for (std::uint64_t i = 0; i < kPending; ++i) loop.arm(packet);
    loop.simulator.run();
    consume(loop.simulator.events_executed());
  });
}

/// Schedule + cancel churn: timers that almost never fire (TCP retransmit,
/// compare unblock) exercise the tombstone path.
double bench_cancel(double min_seconds) {
  constexpr std::uint64_t kEventsPerBatch = 8192;
  return time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
    sim::Simulator simulator(1);
    for (std::uint64_t i = 0; i < n; ++i) {
      sim::EventHandle handle = simulator.schedule_after(
          sim::Duration::microseconds(1), [] { consume(1); });
      handle.cancel();
    }
    simulator.run();
    consume(simulator.events_pending());
  });
}

/// The workload engine's dominant timer class: short-horizon schedule +
/// cancel (a pacing tick or RTO that is rescheduled before it fires)
/// against a standing population of outstanding timers. The heap pays an
/// O(log n) push plus a tombstone per churn event; the wheel pays two O(1)
/// slot splices and frees the record immediately. Both sides build the
/// same population, churn the same count, and drain to empty, so the
/// per-item figure includes every deferred cost (tombstone purges and
/// wheel anchor cascades alike).
Comparison bench_timer_wheel(double min_seconds) {
  constexpr std::uint64_t kChurnPerBatch = 32768;
  constexpr std::uint64_t kBackground = 32768;
  // Background deadlines spread over ~1 s; churn deadlines within ~1 ms.
  const auto background_us = [](std::uint64_t i) {
    return 50 + (i * 997) % 1'000'000;
  };

  Comparison result;
  result.baseline_ns =
      time_per_item(min_seconds, kChurnPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        for (std::uint64_t i = 0; i < kBackground; ++i) {
          simulator.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(background_us(i))),
              [] { consume(2); });
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          sim::EventHandle handle = simulator.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(1 + (i & 1023))),
              [] { consume(1); });
          handle.cancel();
        }
        simulator.run();
        consume(simulator.events_pending());
      });
  result.optimized_ns =
      time_per_item(min_seconds, kChurnPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        sim::TimerWheel wheel(simulator,
                              {sim::Duration::microseconds(10)});
        for (std::uint64_t i = 0; i < kBackground; ++i) {
          wheel.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(background_us(i))),
              +[](void*, std::uint64_t arg) { consume(arg); }, nullptr, 2);
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          const sim::TimerWheel::TimerId id = wheel.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(1 + (i & 1023))),
              +[](void*, std::uint64_t arg) { consume(arg); }, nullptr, 1);
          wheel.cancel(id);
        }
        simulator.run();
        consume(wheel.fired());
      });
  return result;
}

}  // namespace

int main() {
  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;
  const double min_seconds = quick ? 0.02 : 0.25;
  constexpr int kFanout = 3;
  constexpr std::size_t kPayload = 1470;

  std::printf("\n=== NetCo hot-path microbench (payload=%zuB, k=%d) ===\n",
              kPayload, kFanout);

  const Comparison fanout = bench_fanout(min_seconds, kFanout, kPayload);
  const Comparison hash = bench_hash_memo(min_seconds, kPayload);
  const Comparison sched = bench_scheduler(min_seconds, kPayload);
  const double steady_ns = bench_steady_state(min_seconds, kPayload);
  const double cancel_ns = bench_cancel(min_seconds);
  const Comparison wheel = bench_timer_wheel(min_seconds);

  std::printf("fan-out (k=%d dup+hash): deep-copy %.1f ns/pkt -> COW %.1f "
              "ns/pkt  (%.1fx)\n",
              kFanout, fanout.baseline_ns, fanout.optimized_ns,
              fanout.speedup());
  std::printf("content hash:           fnv1a    %.1f ns/call -> memoized "
              "%.1f ns/call (%.1fx)\n",
              hash.baseline_ns, hash.optimized_ns, hash.speedup());
  std::printf("scheduler event:        legacy   %.1f ns/ev  -> fast path "
              "%.1f ns/ev  (%.1fx)\n",
              sched.baseline_ns, sched.optimized_ns, sched.speedup());
  std::printf("steady state (32 pend): %.1f ns/ev\n", steady_ns);
  std::printf("schedule+cancel:        %.1f ns/ev (tombstone purge)\n",
              cancel_ns);
  std::printf("timer churn (32k bg):   heap     %.1f ns/ev  -> wheel     "
              "%.1f ns/ev  (%.1fx)\n",
              wheel.baseline_ns, wheel.optimized_ns, wheel.speedup());

  char json[1280];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"hotpath\",\"quick\":%s,\"payload_bytes\":%zu,"
      "\"fanout_k%d\":{\"baseline_deep_ns_per_packet\":%.2f,"
      "\"cow_ns_per_packet\":%.2f,\"speedup\":%.2f},"
      "\"content_hash\":{\"baseline_fnv_ns_per_call\":%.2f,"
      "\"memoized_ns_per_call\":%.2f,\"speedup\":%.2f},"
      "\"scheduler\":{\"legacy_model_ns_per_event\":%.2f,"
      "\"fastpath_ns_per_event\":%.2f,\"speedup\":%.2f,"
      "\"steady_state_ns_per_event\":%.2f,"
      "\"schedule_cancel_ns_per_event\":%.2f},"
      "\"timer_wheel\":{\"heap_ns_per_event\":%.2f,"
      "\"wheel_ns_per_event\":%.2f,\"speedup\":%.2f}}",
      quick ? "true" : "false", kPayload, kFanout, fanout.baseline_ns,
      fanout.optimized_ns, fanout.speedup(), hash.baseline_ns,
      hash.optimized_ns, hash.speedup(), sched.baseline_ns,
      sched.optimized_ns, sched.speedup(), steady_ns, cancel_ns,
      wheel.baseline_ns, wheel.optimized_ns, wheel.speedup());

  const char* out_path = std::getenv("NETCO_HOTPATH_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_hotpath.json";
  }
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
    std::printf("\nSummary written to %s\n", out_path);
  } else {
    std::printf("\n%s\n", json);
  }

  // The acceptance bars: the k=3 duplicate+hash fan-out must be ≥ 2x
  // cheaper than the deep-copy baseline, and the timer wheel must clear a
  // ≥ 2x schedule+cancel throughput bar over the binary heap — both
  // measured in this run.
  const bool pass = fanout.speedup() >= 2.0 && wheel.speedup() >= 2.0;
  std::printf(
      "\nHot-path verdict: %s (fan-out %.1fx, timer wheel %.1fx, bar 2.0x "
      "each)\n",
      pass ? "PASS" : "FAIL", fanout.speedup(), wheel.speedup());
  return pass ? 0 : 1;
}
