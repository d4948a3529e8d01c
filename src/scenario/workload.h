// Flow-level workload fleets: the sharded soak driven by src/workload's
// population engine instead of the single iperf-like stream.
//
// A workload circuit is a SoakCircuit with SoakOptions::workload.enabled —
// the same Fig. 3 circuit, fault injector, invariant checkers and trace
// determinism, but offered load comes from a session population (Poisson
// arrivals, Pareto flow sizes, scenario-shaped rate) multiplexed over a
// flat flow pool and a hierarchical timer wheel. run_soak() runs one;
// run_workload_fleet() is run_sharded_soak() that rejects a base without
// the engine.
#pragma once

#include "scenario/sharded_soak.h"
#include "scenario/soak.h"

namespace netco::scenario {

/// Runs a fleet of workload circuits (options.base.workload.enabled must
/// be set) with the sharded harness's determinism guarantees: merged
/// hashes are identical for every shard count. Each circuit's wl_* fields
/// and FCT percentiles are filled alongside the usual soak artifacts.
ShardedSoakResult run_workload_fleet(const ShardedSoakOptions& options);

}  // namespace netco::scenario
