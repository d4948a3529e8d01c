// Static failover-rule compiler (DESIGN §16).
//
// Walks a topo::FatTreeTopology and precomputes, for every (switch,
// out-port) pair on every destination's forwarding tree, an arc-disjoint
// backup — then installs the whole thing as low-priority OpenFlow rules
// guarded by per-port liveness conditions (FlowSpec::guard_port, flipped
// by the keepalive in faultinject::FabricFaultInjector). Forwarding then
// degrades locally and instantly on a failure: the lookup skips the
// dead-guarded primary and the next backup takes over, with no
// controller round-trip — the regime *Exploring the Limits of Static
// Failover Routing* (Chiesa et al.) studies.
//
// Two backup families, reflecting fat-tree structure:
//
//  * Up-path failures (edge→agg, agg→core): the alternative next hop is
//    a sibling of the same tier and reaches every destination untagged —
//    a simple guarded rotation chain at priorities just below the
//    primary.
//  * Down-path failures (core→agg, agg→edge): the only detour crosses to
//    a *different* aggregation index (core groups are partitioned per
//    index), which requires descending to an edge and re-ascending. Those
//    detour packets are VLAN-tagged, and the tag's VID encodes a hop
//    budget: V(i) = 0xF00 + i, each detour hop rewrites to V(i+1), and
//    no rule exists at V(6) — a packet that exhausts its budget of 6
//    misses the table and is dropped, which is the loop breaker. The
//    home edge strips the tag before host delivery.
//
// The compiler re-installs the primary routes with liveness guards (the
// FlowTable replaces strictly-equal matches in place), so primary rules
// stay cookie-0 while every backup rule carries kFailoverCookie — the
// "resilience.static_hit" / "failover.reroute" counter pair separates
// traffic carried by the static layer from traffic actively detoured.
#pragma once

#include <cstddef>
#include <cstdint>

#include "topo/fattree.h"

namespace netco::failover {

struct CompileSummary {
  std::size_t rules_installed = 0;   ///< backup/detour rules added
  std::size_t primaries_guarded = 0; ///< primary routes re-installed guarded
  std::size_t switches_touched = 0;
  std::size_t macs = 0;              ///< destinations compiled
};

/// Compiles and installs the full guarded backup layer for `topo`.
/// Idempotent: re-running replaces the same rules. The wrapped combiner
/// position is left untouched (its replicas forward by destination MAC,
/// which carries tagged detour packets unchanged).
CompileSummary compile_failover(topo::FatTreeTopology& topo);

}  // namespace netco::failover
