#include "faultinject/fabric_injector.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "obs/observability.h"

namespace netco::faultinject {

FabricFaultInjector::FabricFaultInjector(topo::FatTreeTopology& topo,
                                         FaultPlan plan)
    : topo_(topo), plan_(std::move(plan)) {}

void FabricFaultInjector::arm() {
  for (const FaultEvent& event : plan_.events) {
    switch (event.kind) {
      case FaultKind::kFabricLinkCut:
      case FaultKind::kFabricLinkRestore:
      case FaultKind::kSwitchKill:
      case FaultKind::kSwitchRestart:
        topo_.simulator().schedule_at(sim::TimePoint::from_ns(event.at_ns),
                                      [this, &event] { apply(event); });
        break;
      default:
        break;  // combiner-circuit faults: not ours
    }
  }
}

void FabricFaultInjector::set_wire(const topo::FabricLink& wire, bool down) {
  wire.link->set_down(down);
  // Each plain endpoint notices after the keepalive delay and flips the
  // liveness guard on its port — the local, controller-free detection
  // that arms (or disarms) the compiled backup rules.
  const auto flip = [this, down](int sid, device::PortIndex port) {
    if (sid < 0) return;  // host endpoint: no flow table to reroute
    openflow::OpenFlowSwitch* sw = topo_.switch_by_sid(sid);
    if (sw == nullptr) return;  // wrapped position: combiner-managed
    topo_.simulator().schedule_after(
        resilience::kSwitchKeepalive,
        [sw, port, down] { sw->set_port_live(port, !down); });
  };
  flip(wire.a_sid, wire.a_port);
  flip(wire.b_sid, wire.b_port);
}

void FabricFaultInjector::apply(const FaultEvent& event) {
  ++applied_;
  obs::Tracer& tracer = obs::global().tracer;
  const auto now_ns = topo_.simulator().now().ns();
  switch (event.kind) {
    case FaultKind::kFabricLinkCut:
    case FaultKind::kFabricLinkRestore: {
      const topo::FabricLink* wire =
          topo_.find_fabric_link(event.node, event.peer);
      if (wire == nullptr) {
        NETCO_LOG_WARN("faultinject", "{}: no fabric wire {}<->{}",
                       to_string(event.kind), event.node, event.peer);
        return;
      }
      const bool down = event.kind == FaultKind::kFabricLinkCut;
      set_wire(*wire, down);
      if (tracer.enabled()) {
        tracer.emit(now_ns,
                    down ? obs::TraceEvent::kFailoverLinkDown
                         : obs::TraceEvent::kFailoverLinkUp,
                    static_cast<std::uint64_t>(event.node), "fabric",
                    event.peer, 0);
      }
      break;
    }
    case FaultKind::kSwitchKill:
    case FaultKind::kSwitchRestart: {
      const bool down = event.kind == FaultKind::kSwitchKill;
      int wires = 0;
      for (const topo::FabricLink& wire : topo_.fabric_links()) {
        if (wire.a_sid != event.node && wire.b_sid != event.node) continue;
        set_wire(wire, down);
        ++wires;
      }
      if (wires == 0) {
        NETCO_LOG_WARN("faultinject", "{}: switch sid {} has no wires",
                       to_string(event.kind), event.node);
        return;
      }
      if (tracer.enabled()) {
        tracer.emit(now_ns,
                    down ? obs::TraceEvent::kFailoverSwitchKill
                         : obs::TraceEvent::kFailoverSwitchRestart,
                    static_cast<std::uint64_t>(event.node), "fabric",
                    event.node, static_cast<std::uint32_t>(wires));
      }
      break;
    }
    default:
      return;
  }
}

FaultPlan make_kill_plan(const topo::FatTreeTopology& topo,
                         const KillPlanOptions& options) {
  const int k = topo.options().k;
  const int h = k / 2;
  const auto& combine = topo.options().combine_agg;
  const int wrapped_sid =
      combine ? topo.agg_sid(combine->pod, combine->index) : -1;

  // Candidate wires: switch↔switch only; kPrimaryPath keeps the wires the
  // deterministic routing actually uses (edge↔agg0 up-links, agg0↔core
  // slot 0 up-links — which double as every primary down-path).
  std::vector<std::pair<int, int>> wires;
  for (const topo::FabricLink& wire : topo.fabric_links()) {
    if (wire.b_sid < 0) continue;  // host wire
    if (options.target == KillTarget::kPrimaryPath) {
      bool primary = false;
      for (int p = 0; p < k && !primary; ++p) {
        const int agg0 = topo.agg_sid(p, 0);
        if (wire.a_sid != agg0 && wire.b_sid != agg0) continue;
        const int other = wire.a_sid == agg0 ? wire.b_sid : wire.a_sid;
        primary = other < k * h /*any edge of the pod*/ ||
                  other == topo.core_sid(0);
      }
      if (!primary) continue;
    }
    wires.emplace_back(wire.a_sid, wire.b_sid);
  }

  // Candidate switch kills: aggregations and cores, never edges (an edge
  // kill isolates its hosts — no routing absorbs that) and never the
  // wrapped position (the combiner has its own fault vocabulary).
  std::vector<int> switches;
  for (int p = 0; p < k; ++p) {
    for (int a = 0; a < h; ++a) {
      const int sid = topo.agg_sid(p, a);
      if (sid == wrapped_sid) continue;
      if (options.target == KillTarget::kPrimaryPath && a != 0) continue;
      switches.push_back(sid);
    }
  }
  for (int cix = 0; cix < h * h; ++cix) {
    if (options.target == KillTarget::kPrimaryPath && cix != 0) continue;
    switches.push_back(topo.core_sid(cix));
  }

  FaultPlan plan;
  plan.seed = options.seed;
  Rng rng(options.seed);
  const std::int64_t at = options.at.ns();
  const auto draw = [&rng](auto& pool) {
    const std::size_t i = rng.uniform_u64(pool.size());
    const auto picked = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return picked;
  };
  for (int i = 0; i < options.link_cuts && !wires.empty(); ++i) {
    const auto [a, b] = draw(wires);
    FaultEvent e;
    e.at_ns = at;
    e.kind = FaultKind::kFabricLinkCut;
    e.node = a;
    e.peer = b;
    plan.events.push_back(e);
  }
  for (int i = 0; i < options.switch_kills && !switches.empty(); ++i) {
    const int sid = draw(switches);
    FaultEvent e;
    e.at_ns = at;
    e.kind = FaultKind::kSwitchKill;
    e.node = sid;
    plan.events.push_back(e);
  }
  plan.normalize();
  return plan;
}

}  // namespace netco::faultinject
