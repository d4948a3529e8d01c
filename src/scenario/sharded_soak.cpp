#include "scenario/sharded_soak.h"

#include <optional>

#include "scenario/soak_circuit.h"

namespace netco::scenario {

namespace {

/// Beacon send period per circuit while its sender phase lasts.
constexpr sim::Duration kBeaconPeriod = sim::Duration::milliseconds(10);

}  // namespace

ShardedSoakResult run_sharded_soak(const ShardedSoakOptions& options) {
  ShardedSoakResult out;
  FleetResult<SoakResult>& fleet = out;
  fleet = run_fleet<SoakCircuit>(
      options.base, options.circuits, options.shards,
      options.cross_shard_beacons ? std::optional(kBeaconPeriod)
                                  : std::nullopt);
  out.merged_egress_hash =
      fold_in_circuit_order(out.circuits, &SoakResult::egress_set_hash);
  for (const SoakResult& r : out.circuits) {
    out.datagrams_sent += r.datagrams_sent;
    out.delivered_unique += r.delivered_unique;
    out.compare_ingested += r.compare_ingested;
    out.compare_released += r.compare_released;
    out.duplicate_egress += r.duplicate_egress;
    out.fault_events_applied += r.fault_events_applied;
  }
  out.wall_pps = out.wall_seconds > 0.0
                     ? static_cast<double>(out.datagrams_sent) /
                           out.wall_seconds
                     : 0.0;
  return out;
}

}  // namespace netco::scenario
