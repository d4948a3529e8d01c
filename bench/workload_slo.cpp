// Workload SLO curves: goodput and flow-completion-time percentiles vs
// offered load, per scenario shape {steady, diurnal, flash-crowd,
// ddos-burst}, driven through a full k=3 combiner circuit by the
// million-flow workload engine (flat SoA pool + hierarchical timer wheel).
//
// Two phases:
//  1. Capacity: the flat pool + wheel sustain >= 1M concurrent flow
//     records with zero per-flow heap objects; the acquire+schedule setup
//     rate is measured and enforced (the bar catches any per-flow
//     allocation creeping back in).
//  2. SLO sweep: each scenario runs at increasing offered session rates;
//     goodput and FCT p50/p95/p99 land in BENCH_workload.json. One
//     mid-load config is run twice same-seed (bit determinism), and a
//     small sharded fleet checks merged-hash shard-count invariance.
//
// Verdict (exit status): 0 iff every run held its invariants, the
// double run was bit-identical, the fleet hashes were shard-invariant,
// and the capacity phase cleared the setup-rate bar.
//
// Env knobs:
//   NETCO_BENCH_QUICK=1  — short CI-sized sweeps (fewer loads, shorter runs)
//   NETCO_SOAK_OUT=path  — summary path (default BENCH_workload.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/workload.h"
#include "sim/timer_wheel.h"
#include "workload/flow_pool.h"

namespace {

using namespace netco;
using Clock = std::chrono::steady_clock;

/// Prevents the optimizer from deleting wheel callbacks.
std::uint64_t g_sink = 0;

/// The flat pool + wheel must hold >= 1M concurrent flow records (each
/// with a live timer) without any per-flow heap object, and must set them
/// up fast enough that a regression back to per-flow allocation or
/// O(log n) scheduling trips the bar.
struct CapacityResult {
  std::size_t concurrent = 0;
  std::size_t pool_records = 0;
  std::size_t wheel_slab = 0;
  double setup_rate_per_sec = 0.0;
  bool pass = false;
};

CapacityResult run_capacity_phase(std::size_t concurrent, double bar_per_sec) {
  CapacityResult result;
  result.concurrent = concurrent;

  sim::Simulator simulator(1);
  sim::TimerWheel wheel(simulator, {sim::Duration::microseconds(100)});
  workload::FlowPool pool(concurrent + concurrent / 5);
  result.pool_records = pool.capacity();

  const auto start = Clock::now();
  for (std::size_t i = 0; i < concurrent; ++i) {
    const std::uint32_t record = pool.acquire();
    NETCO_ASSERT(record != workload::FlowPool::kNil);
    // An RTO-class deadline per record, like a real in-flight flow.
    pool.timer[record] = wheel.schedule_after(
        sim::Duration::microseconds(
            static_cast<std::int64_t>(40'000 + (i % 4096))),
        +[](void*, std::uint64_t arg) { g_sink ^= arg; }, nullptr, record);
  }
  const double setup_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  const bool held = pool.live() == concurrent && wheel.active() == concurrent;
  result.wheel_slab = wheel.slab_capacity();
  result.setup_rate_per_sec =
      setup_seconds > 0.0 ? static_cast<double>(concurrent) / setup_seconds
                          : 0.0;

  // Tear down the way the engine does: cancel half (rescheduled-before-
  // fire flows), let the rest fire, recycle every record.
  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < concurrent; i += 2) {
    if (wheel.cancel(pool.timer[static_cast<std::uint32_t>(i)])) ++cancelled;
  }
  simulator.run();
  const bool drained = wheel.active() == 0 &&
                       wheel.fired() + cancelled == concurrent;
  for (std::size_t i = 0; i < concurrent; ++i) {
    pool.release(static_cast<std::uint32_t>(i));
  }

  result.pass = held && drained && pool.live() == 0 &&
                pool.peak_live() == concurrent &&
                result.setup_rate_per_sec >= bar_per_sec;
  return result;
}

scenario::SoakOptions slo_options(workload::Scenario scenario,
                                  double arrivals_per_sec,
                                  sim::Duration duration) {
  scenario::SoakOptions options;
  options.k = 3;
  options.seed = 0xF10F10 ^ static_cast<std::uint64_t>(scenario) << 8 ^
                 static_cast<std::uint64_t>(arrivals_per_sec);
  options.workload.enabled = true;
  options.workload.scenario = scenario;
  options.workload.duration = duration;
  options.workload.session_arrivals_per_sec = arrivals_per_sec;
  return options;
}

struct SloPoint {
  double offered_per_sec = 0.0;
  scenario::SoakResult result;
};

std::string point_json(const SloPoint& point, double duration_seconds,
                       std::size_t payload_bytes) {
  const scenario::SoakResult& r = point.result;
  const double goodput_pps =
      static_cast<double>(r.delivered_unique) / duration_seconds;
  const double goodput_mbps = goodput_pps *
                              static_cast<double>(payload_bytes) * 8.0 / 1e6;
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"offered_sessions_per_sec\":%.0f,\"sessions\":%llu,"
      "\"flows_completed\":%llu,\"flows_aborted\":%llu,"
      "\"datagrams_offered\":%llu,\"delivered_unique\":%llu,"
      "\"goodput_pps\":%.1f,\"goodput_mbps\":%.3f,"
      "\"fct_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f},"
      "\"pool_peak_live\":%llu,\"stream_hash\":\"%s\",\"ok\":%s}",
      point.offered_per_sec,
      static_cast<unsigned long long>(r.wl_sessions_started),
      static_cast<unsigned long long>(r.wl_flows_completed),
      static_cast<unsigned long long>(r.wl_flows_aborted),
      static_cast<unsigned long long>(r.datagrams_sent),
      static_cast<unsigned long long>(r.delivered_unique), goodput_pps,
      goodput_mbps, r.wl_fct_p50_ms, r.wl_fct_p95_ms, r.wl_fct_p99_ms,
      static_cast<unsigned long long>(r.wl_pool_peak_live),
      bench::hash_hex(r.stream_hash).c_str(), r.ok() ? "true" : "false");
  return buf;
}

}  // namespace

int main() {
  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;
  const sim::Duration duration =
      quick ? sim::Duration::milliseconds(500) : sim::Duration::seconds(2);
  const double duration_seconds =
      static_cast<double>(duration.ns()) / 1e9;
  const std::vector<double> loads =
      quick ? std::vector<double>{150.0, 450.0}
            : std::vector<double>{200.0, 600.0, 1200.0};
  const workload::Scenario scenarios[] = {
      workload::Scenario::kSteady, workload::Scenario::kDiurnal,
      workload::Scenario::kFlashCrowd, workload::Scenario::kDdosBurst};

  std::printf(
      "\n=== NetCo workload SLO — goodput + FCT tails vs offered load ===\n"
      "k=3 majority circuit, %.1fs per run, %zu offered-load points per "
      "scenario.%s\n",
      duration_seconds, loads.size(), quick ? " [quick]" : "");

  // --- phase 1: million-record capacity + setup-rate bar ------------------
  constexpr std::size_t kConcurrent = 1'000'000;
  constexpr double kSetupBarPerSec = 250'000.0;
  const CapacityResult capacity =
      run_capacity_phase(kConcurrent, kSetupBarPerSec);
  std::printf(
      "\ncapacity: %zu concurrent flow records (pool slab %zu, wheel slab "
      "%zu), setup %.2fM rec/s (bar %.2fM) -> %s\n",
      capacity.concurrent, capacity.pool_records, capacity.wheel_slab,
      capacity.setup_rate_per_sec / 1e6, kSetupBarPerSec / 1e6,
      capacity.pass ? "OK" : "FAIL");

  bool all_ok = capacity.pass;

  // --- phase 2: SLO sweep per scenario ------------------------------------
  const std::size_t payload_bytes = workload::WorkloadConfig::kPayloadBytes;
  std::string scenarios_json = "[";
  bool first_scenario = true;
  for (const workload::Scenario scenario : scenarios) {
    std::printf("\n%-12s %10s %12s %10s %10s %10s %10s\n",
                workload::to_string(scenario), "offered/s", "goodput-pps",
                "fct-p50ms", "fct-p95ms", "fct-p99ms", "flows");
    std::string points_json = "[";
    bool first_point = true;
    for (const double load : loads) {
      SloPoint point;
      point.offered_per_sec = load;
      point.result =
          scenario::run_soak(slo_options(scenario, load, duration));
      const scenario::SoakResult& r = point.result;
      all_ok = all_ok && r.ok();
      std::printf(
          "%-12s %10.0f %12.1f %10.3f %10.3f %10.3f %10llu %s\n", "",
          load, static_cast<double>(r.delivered_unique) / duration_seconds,
          r.wl_fct_p50_ms, r.wl_fct_p95_ms, r.wl_fct_p99_ms,
          static_cast<unsigned long long>(r.wl_flows_completed),
          r.ok() ? "" : "FAIL");
      if (!first_point) points_json += ',';
      points_json += point_json(point, duration_seconds, payload_bytes);
      first_point = false;
    }
    points_json += "]";
    scenarios_json += std::string(first_scenario ? "" : ",") +
                      "{\"name\":\"" + workload::to_string(scenario) +
                      "\",\"points\":" + points_json + "}";
    first_scenario = false;
  }
  scenarios_json += "]";

  // --- determinism: same-seed double run, bit-identical -------------------
  const scenario::SoakOptions repeat_options =
      slo_options(workload::Scenario::kFlashCrowd, loads[loads.size() / 2],
                  duration);
  const scenario::SoakResult run_a = scenario::run_soak(repeat_options);
  const scenario::SoakResult run_b = scenario::run_soak(repeat_options);
  const bool deterministic = run_a.stream_hash == run_b.stream_hash &&
                             run_a.metrics_json == run_b.metrics_json &&
                             run_a.trace_records == run_b.trace_records;
  all_ok = all_ok && deterministic;
  std::printf("\nsame-seed double run (flash-crowd): %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  // --- fleet: merged hashes must be shard-count invariant -----------------
  scenario::ShardedSoakOptions fleet;
  fleet.base = slo_options(workload::Scenario::kSteady, 150.0,
                           sim::Duration::milliseconds(quick ? 200 : 400));
  fleet.circuits = 2;
  fleet.shards = 1;
  const scenario::ShardedSoakResult fleet_one =
      scenario::run_workload_fleet(fleet);
  fleet.shards = 2;
  const scenario::ShardedSoakResult fleet_two =
      scenario::run_workload_fleet(fleet);
  const bool fleet_invariant =
      fleet_one.ok() && fleet_two.ok() &&
      fleet_one.merged_stream_hash == fleet_two.merged_stream_hash &&
      fleet_one.merged_egress_hash == fleet_two.merged_egress_hash;
  all_ok = all_ok && fleet_invariant;
  std::printf("2-circuit fleet, shards 1 vs 2: %s\n",
              fleet_invariant ? "merged hashes invariant" : "MISMATCH");

  // --- BENCH_workload.json --------------------------------------------------
  char head[512];
  std::snprintf(
      head, sizeof head,
      "{\"quick\":%s,\"run_seconds\":%.2f,"
      "\"capacity\":{\"concurrent_records\":%zu,\"pool_records\":%zu,"
      "\"wheel_slab\":%zu,\"setup_rate_per_sec\":%.0f,"
      "\"setup_bar_per_sec\":%.0f,\"pass\":%s},"
      "\"deterministic\":%s,\"fleet_hash_invariant\":%s,",
      quick ? "true" : "false", duration_seconds, capacity.concurrent,
      capacity.pool_records, capacity.wheel_slab,
      capacity.setup_rate_per_sec, kSetupBarPerSec,
      capacity.pass ? "true" : "false", deterministic ? "true" : "false",
      fleet_invariant ? "true" : "false");
  const std::string summary = std::string(head) +
                              "\"scenarios\":" + scenarios_json +
                              ",\"verdict\":\"" +
                              (all_ok ? "pass" : "fail") + "\"}";

  const char* out_path = std::getenv("NETCO_SOAK_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_workload.json";
  }
  bench::write_bench_file(out_path, summary);
  std::printf("\nWorkload SLO curves recorded in %s\n", out_path);

  std::printf("\nWorkload SLO verdict: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
