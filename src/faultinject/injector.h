// FaultInjector: executes a FaultPlan against a Figure3Topology.
//
// arm() schedules every plan event on the topology's simulator, so faults
// interleave with traffic in deterministic event order. All state needed
// to revert (original cache capacities, owned byzantine interceptors)
// lives here; the injector must outlive the simulation run.
#pragma once

#include <memory>
#include <vector>

#include "device/datapath.h"
#include "faultinject/fault_plan.h"
#include "topo/figure3.h"

namespace netco::resilience {
class ResilienceManager;
}  // namespace netco::resilience

namespace netco::faultinject {

class FaultInjector {
 public:
  /// Binds a plan to a built combiner topology. The topology must use the
  /// combiner (cache faults need the compare service).
  FaultInjector(topo::Figure3Topology& topo, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event on the simulator. Call once, before run.
  void arm();

  /// Wires up the resilience manager the trusted-component fault kinds
  /// (compare crash/hang, hub crash, heartbeat loss) delegate to. Without
  /// one, those events are skipped. Must be set before the
  /// simulation reaches the first such event; the manager must outlive
  /// the run.
  void set_resilience(resilience::ResilienceManager* manager) noexcept {
    resilience_ = manager;
  }

  /// Events applied so far. Events the injector skips (fabric and routing
  /// kinds, trusted-component kinds without a manager, cache kinds without
  /// a compare) are not counted.
  [[nodiscard]] std::size_t applied() const noexcept { return applied_; }

 private:
  void apply(const FaultEvent& event);
  void set_replica_links_down(int replica, bool down);

  topo::Figure3Topology& topo_;
  FaultPlan plan_;
  resilience::ResilienceManager* resilience_ = nullptr;
  std::size_t applied_ = 0;
  /// Original compare cache capacity per edge, captured at arm() so
  /// kCacheRestore reverts squeezes exactly.
  std::vector<std::size_t> original_capacity_;
  /// Byzantine behaviours installed by kBehaviorSwap. Owned here because
  /// OpenFlowSwitch::set_interceptor borrows.
  std::vector<std::unique_ptr<device::DatapathInterceptor>> interceptors_;
};

}  // namespace netco::faultinject
