// The benchmark's three workloads, generated from a seed.
//
// The program under test only ever sees the options built here; the seed
// and the run length decide them completely, so the same arguments give
// the same inputs and the same simulated-time outcomes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/sharded_soak.h"
#include "scenario/soak.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Single-circuit workloads: one circuit per sub-seed, driven one after
  /// another through the SoakCircuit window protocol.
  std::vector<netco::scenario::SoakOptions> circuits;
  /// The fleet workload: one run_workload_fleet() call.
  std::optional<netco::scenario::ShardedSoakOptions> fleet;
  /// Warm set-up rounds per sampling batch. Single-circuit workloads take
  /// a batch after each circuit; the fleet one before and one after.
  int setup_batch = 0;

  /// The circuits one set-up round builds: the circuit of one sub-seed
  /// (cycling through them by round) or every circuit of the fleet, with
  /// the fleet harness's own seed derivation.
  [[nodiscard]] std::vector<netco::scenario::SoakOptions> setup_round(
      int round) const;
};

/// Builds the named workload, or nullopt for an unknown name. `seconds`
/// sizes the run (more sub-seeds, or a longer fleet) so that it measures
/// about that long on a 4-vCPU host; `tiny` shrinks it to a self-test.
[[nodiscard]] std::optional<WorkloadSpec> make_workload(
    const std::string& name, std::uint64_t seed, int seconds, bool tiny);

}  // namespace perfbench
