// FabricFaultInjector: executes fabric fault plans (link.cut/link.restore,
// switch.kill/switch.restart) against a topo::FatTreeTopology, modelling
// the failure *and* its local detection.
//
// A cut takes the link down immediately (packets in flight drop); each
// plain endpoint switch then marks its port dead after the keepalive
// delay — the same resilience::kSwitchKeepalive the fail_static degraded
// policy waits — which is what arms the compiler's guarded backup rules.
// There is no controller in this loop anywhere: detection and reroute are
// both local to the switch.
//
// make_kill_plan() builds the correlated multi-failure plans the soak
// sweeps: N link cuts + M switch kills all firing at one instant, drawn
// seeded from the fabric (optionally restricted to elements on the
// primary forwarding paths, so a single failure provably hits traffic).
#pragma once

#include <cstdint>
#include <vector>

#include "faultinject/fault_plan.h"
#include "resilience/resilience.h"
#include "sim/time.h"
#include "topo/fattree.h"

namespace netco::faultinject {

/// Arms and applies fabric fault events from a plan. Non-fabric kinds in
/// the plan are ignored (they belong to the combiner-circuit injector).
/// A port's death is detected resilience::kSwitchKeepalive after its link
/// goes down, and its recovery as long after the link comes back.
class FabricFaultInjector {
 public:
  FabricFaultInjector(topo::FatTreeTopology& topo, FaultPlan plan);

  /// Schedules every fabric event through the topology's simulator.
  void arm();

  /// Fabric events applied so far.
  [[nodiscard]] int applied() const noexcept { return applied_; }

 private:
  void apply(const FaultEvent& event);
  /// Cuts/restores one recorded wire and schedules the endpoint port
  /// liveness flips after the keepalive.
  void set_wire(const topo::FabricLink& wire, bool down);

  topo::FatTreeTopology& topo_;
  FaultPlan plan_;
  int applied_ = 0;
};

/// Which fabric elements a kill plan may target.
enum class KillTarget : std::uint8_t {
  kAny,          ///< any switch↔switch wire / any agg or core switch
  kPrimaryPath,  ///< only elements the deterministic primary routing uses
                 ///< (agg index 0, core slot 0) — guarantees traffic impact
};

struct KillPlanOptions {
  std::uint64_t seed = 1;
  int link_cuts = 0;     ///< concurrent fabric link cuts
  int switch_kills = 0;  ///< concurrent switch kills (aggs/cores only)
  sim::Duration at = sim::Duration::milliseconds(200);  ///< the kill instant
  KillTarget target = KillTarget::kAny;
};

/// Draws a correlated multi-failure plan: all cuts and kills fire at
/// `at`, with no recovery events — the soak measures whether the static
/// rules alone absorb the permanent damage. Distinct elements are drawn
/// without replacement; the wrapped combiner position and host wires are
/// never targeted (the combiner has its own fault vocabulary), and edge
/// switches are never killed (killing one isolates its hosts by
/// construction — no routing can absorb that).
FaultPlan make_kill_plan(const topo::FatTreeTopology& topo,
                         const KillPlanOptions& options);

}  // namespace netco::faultinject
