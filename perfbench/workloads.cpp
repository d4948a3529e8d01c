#include "workloads.h"

#include <algorithm>

#include "common/hash.h"

namespace perfbench {

using netco::DataRate;
using netco::scenario::ShardedSoakOptions;
using netco::scenario::SoakOptions;
namespace sim = netco::sim;

namespace {

/// Sub-seed i of a run: distinct circuits per run, fixed by the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  return netco::hash_mix(seed, static_cast<std::uint64_t>(i) + 1);
}

/// Simulated length of a classic soak: packets at the offered rate.
std::int64_t soak_horizon_ns(const SoakOptions& options) {
  const double pps = static_cast<double>(options.rate.bps()) /
                     (static_cast<double>(options.payload_bytes) * 8.0);
  return static_cast<std::int64_t>(
      1e9 * static_cast<double>(options.packets) / pps);
}

/// bench/soak_netco's single-swap plan, placed by the seed: one replica
/// turns corrupt between 1/5 and 2/5 of the run and honest again 3/10 to
/// 1/2 of the run later (soak_netco fixes replica 2 from 1/5 to 3/5).
netco::faultinject::FaultPlan single_swap_plan(std::uint64_t seed,
                                               std::int64_t horizon_ns) {
  using netco::faultinject::FaultEvent;
  using netco::faultinject::FaultKind;
  using netco::faultinject::SwapBehavior;
  const int replica = static_cast<int>(seed % 5);
  const std::int64_t step = horizon_ns / 5000;  // 1/1000 of a fifth
  const std::int64_t corrupt_at =
      horizon_ns / 5 + static_cast<std::int64_t>((seed >> 8) % 1000) * step;
  const std::int64_t honest_at =
      corrupt_at + horizon_ns * 3 / 10 +
      static_cast<std::int64_t>((seed >> 24) % 1000) * step;
  netco::faultinject::FaultPlan plan;
  plan.events.push_back(FaultEvent{.at_ns = corrupt_at,
                                   .kind = FaultKind::kBehaviorSwap,
                                   .replica = replica,
                                   .behavior = SwapBehavior::kCorrupt});
  plan.events.push_back(FaultEvent{.at_ns = honest_at,
                                   .kind = FaultKind::kBehaviorSwap,
                                   .replica = replica,
                                   .behavior = SwapBehavior::kHonest});
  return plan;
}

/// Fig. 3 k=3 majority circuit, 10k datagrams per simulated second, the
/// default random FaultPlan, full trace narration into the checker.
SoakOptions k3_churn(std::uint64_t seed, std::uint64_t packets) {
  SoakOptions options;
  options.k = 3;
  options.policy = netco::core::ReleasePolicy::kMajority;
  options.seed = seed;
  options.packets = packets;
  options.rate = DataRate::megabits_per_sec(16);
  return options;
}

/// k=5 with the health loop, sampled verification, the single-swap plan
/// and protocol-only checking (soak_netco's k5-sampled configuration).
SoakOptions k5_sampled(std::uint64_t seed, std::uint64_t packets) {
  SoakOptions options;
  options.k = 5;
  options.policy = netco::core::ReleasePolicy::kMajority;
  options.seed = seed;
  options.packets = packets;
  options.rate = DataRate::megabits_per_sec(10);
  options.health.enabled = true;
  options.sampling.enabled = true;
  options.protocol_trace_only = true;
  options.plan = single_swap_plan(seed, soak_horizon_ns(options));
  return options;
}

/// A fleet of k=3 workload-engine circuits under flash-crowd arrivals and
/// their default fault plans, 4 shard workers, cross-shard beacons. The
/// session arrival rate is the engine's default.
ShardedSoakOptions flash_fleet(std::uint64_t seed, std::size_t circuits,
                               sim::Duration duration) {
  ShardedSoakOptions fleet;
  fleet.base.k = 3;
  fleet.base.seed = seed;
  fleet.base.workload.enabled = true;
  fleet.base.workload.scenario = netco::workload::Scenario::kFlashCrowd;
  fleet.base.workload.duration = duration;
  // A sixteenth of the default pool: each circuit peaks below a thousand
  // live records here, and the default's 3.7 MB per circuit would add
  // about 440 MB to a 120-circuit fleet. A session dropped on a full pool
  // fails the run (main.cpp, gate_circuits).
  fleet.base.workload.pool_capacity = 1 << 12;
  // The 8x burst runs from 5% to 25% of the arrival phase. At the default
  // 40-60% it meets the plan's densest fault overlaps: in about one circuit
  // in twenty, stacked latency ramps on one replica's two links then hold
  // a fifth of that circuit's verdicts at 250-430 us, and whether a run
  // drew a few such circuits more or less moved the pooled p99 across the
  // 200 us histogram edge, by 20-25% from seed to seed.
  fleet.base.workload.burst_start_frac = 0.05;
  fleet.circuits = circuits;
  fleet.shards = 4;
  fleet.cross_shard_beacons = true;
  return fleet;
}

}  // namespace

std::vector<SoakOptions> WorkloadSpec::setup_round(int round) const {
  if (!fleet) {
    return {circuits[static_cast<std::size_t>(round) % circuits.size()]};
  }
  // run_sharded_soak's derivation: circuit 0 keeps the base seed.
  std::vector<SoakOptions> all(fleet->circuits, fleet->base);
  for (std::size_t i = 1; i < all.size(); ++i) {
    all[i].seed = netco::hash_mix(fleet->base.seed, i);
  }
  return all;
}

std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          std::uint64_t seed, int seconds,
                                          bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  const auto run_seconds = static_cast<std::size_t>(std::max(seconds, 1));
  if (name == "soak-k3-churn" || name == "soak-k5-sampled") {
    const bool k3 = name == "soak-k3-churn";
    // Per-circuit size is fixed (it shapes the fault plan); the run length
    // only sets how many sub-seeds run: seven per second fill four lanes
    // for about 0.75 of the run on a 4-vCPU host.
    const std::uint64_t packets = tiny ? 2'000 : k3 ? 24'000 : 30'000;
    const std::size_t count = tiny ? 2 : 7 * run_seconds;
    for (std::size_t i = 0; i < count; ++i) {
      spec.circuits.push_back(k3 ? k3_churn(sub_seed(seed, i), packets)
                                 : k5_sampled(sub_seed(seed, i), packets));
    }
    spec.setup_batch = tiny ? 2 : 10;
    return spec;
  }
  if (name == "fleet-flash-crowd") {
    // Four circuits per run second, each with the engine's default 3 s
    // arrival phase (about 22 000 datagrams): the run's figures average
    // over that many independent fault plans.
    const std::size_t circuits = tiny ? 4 : 4 * run_seconds;
    const sim::Duration duration =
        tiny ? sim::Duration::milliseconds(300) : sim::Duration::seconds(3);
    spec.fleet = flash_fleet(seed, circuits, duration);
    spec.setup_batch = tiny ? 1 : 8;
    return spec;
  }
  return std::nullopt;
}

}  // namespace perfbench
