#include "scenario/workload.h"

#include "common/assert.h"

namespace netco::scenario {

ShardedSoakResult run_workload_fleet(const ShardedSoakOptions& options) {
  NETCO_ASSERT_MSG(
      options.base.workload.enabled,
      "run_workload_fleet() needs SoakOptions::workload.enabled");
  return run_sharded_soak(options);
}

}  // namespace netco::scenario
