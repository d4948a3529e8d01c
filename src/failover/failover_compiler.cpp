#include "failover/failover_compiler.h"

#include <utility>
#include <vector>

#include "common/assert.h"
#include "controller/static_routing.h"
#include "openflow/action.h"
#include "openflow/flow_table.h"
#include "openflow/match.h"

namespace netco::failover {
namespace {

using openflow::ActionList;
using openflow::FlowSpec;
using openflow::Match;
using openflow::OutputAction;
using openflow::SetVlanVidAction;
using openflow::StripVlanAction;

/// First VID of the detour-budget window [base, base + kMaxDetourHops).
constexpr std::uint16_t kDetourVidBase = 0xF00;
/// Detour hop budget H: a tagged packet is rewritten at most H-1 times
/// before it must reach (and be stripped at) its home edge. The longest
/// single-failure detour in a fat-tree consumes 5 budget units.
constexpr int kMaxDetourHops = 6;
static_assert(kMaxDetourHops >= 2,
              "detour budget too small to take a single hop");
/// The guarded primaries re-install install_mac_route's routes at the
/// same priority, so the FlowTable replaces them in place.
constexpr std::uint16_t kPrimaryPriority = controller::kMacRoutePriority;
/// Untagged backup chains descend from here, below the primary.
constexpr std::uint16_t kBackupPriority = 9;
static_assert(kBackupPriority < kPrimaryPriority,
              "untagged backups must rank below the primary");
/// Tagged detour rules descend from here, above the primary, so tagged
/// packets never fall through to an untagged MAC route mid-detour.
constexpr std::uint16_t kDetourPriority = 40;
static_assert(kDetourPriority > kPrimaryPriority,
              "tagged detours must rank above the primary");

/// Per-run installation context: one destination MAC compiled at a time.
struct Compile {
  topo::FatTreeTopology& topo;
  CompileSummary summary;

  [[nodiscard]] static std::uint16_t vid(int i) {
    return static_cast<std::uint16_t>(kDetourVidBase + i);
  }

  void install(openflow::OpenFlowSwitch& sw, FlowSpec spec, bool backup) {
    spec.cookie = backup ? openflow::kFailoverCookie : 0;
    sw.table().add(std::move(spec));
    if (backup) {
      ++summary.rules_installed;
    } else {
      ++summary.primaries_guarded;
    }
  }

  /// Guarded primary: same match/priority install_mac_route used, so the
  /// FlowTable replaces the unguarded original in place.
  void guard_primary(openflow::OpenFlowSwitch& sw, const net::MacAddress& mac,
                     device::PortIndex out) {
    FlowSpec spec;
    spec.match.with_dl_dst(mac);
    spec.actions = {OutputAction::to(out)};
    spec.priority = kPrimaryPriority;
    spec.guard_port = out;
    install(sw, std::move(spec), /*backup=*/false);
  }

  /// Untagged backup (matches only untagged frames — a mid-detour tagged
  /// packet must never reset its hop budget here).
  void backup_untagged(openflow::OpenFlowSwitch& sw,
                       const net::MacAddress& mac, std::uint16_t priority,
                       ActionList actions, device::PortIndex out) {
    FlowSpec spec;
    spec.match.with_dl_dst(mac).with_dl_vlan(openflow::kVlanNone);
    spec.actions = std::move(actions);
    spec.priority = priority;
    spec.guard_port = out;
    install(sw, std::move(spec), /*backup=*/true);
  }

  /// Tagged detour rule at budget step `i` (optionally in_port-scoped).
  void detour(openflow::OpenFlowSwitch& sw, const net::MacAddress& mac, int i,
              std::uint16_t priority, ActionList actions, device::PortIndex out,
              device::PortIndex in_port = device::kNoPort) {
    FlowSpec spec;
    spec.match.with_dl_dst(mac).with_dl_vlan(vid(i));
    if (in_port != device::kNoPort) spec.match.with_in_port(in_port);
    spec.actions = std::move(actions);
    spec.priority = priority;
    spec.guard_port = out;
    install(sw, std::move(spec), /*backup=*/true);
  }
};

}  // namespace

CompileSummary compile_failover(topo::FatTreeTopology& topo) {
  const int k = topo.options().k;
  const int h = k / 2;
  const int H = kMaxDetourHops;
  // Longest chains: k-1 sibling pods at a core (untagged), and the same
  // plus one for the tagged fallbacks — neither may wrap past priority 0
  // or cross the primary priority.
  NETCO_ASSERT_MSG(kBackupPriority >= k,
                   "untagged backup chain would cross priority 0");
  NETCO_ASSERT_MSG(kDetourPriority > kPrimaryPriority + k,
                   "tagged detour chain would cross the primary priority");

  Compile c{topo, {}};
  const auto& combine = topo.options().combine_agg;

  for (int pm = 0; pm < k; ++pm) {
    for (int em = 0; em < h; ++em) {
      for (int im = 0; im < h; ++im) {
        const net::MacAddress mac = topo.host(pm, em, im).mac();
        ++c.summary.macs;

        // --- edge switches -------------------------------------------
        for (int q = 0; q < k; ++q) {
          for (int e2 = 0; e2 < h; ++e2) {
            auto& sw = topo.edge(q, e2);
            if (q == pm && e2 == em) {
              // Home edge: guarded host delivery, plus strip-and-deliver
              // for every budget step (the detour's terminal rule).
              const auto out = static_cast<device::PortIndex>(im);
              c.guard_primary(sw, mac, out);
              for (int i = 0; i < H; ++i) {
                c.detour(sw, mac, i, kDetourPriority,
                         {StripVlanAction{}, OutputAction::to(out)}, out);
              }
              continue;
            }
            // Non-home edge. Primary up-path via aggregation 0; untagged
            // backups rotate through the sibling aggregations (every
            // aggregation reaches every destination untagged).
            c.guard_primary(sw, mac, static_cast<device::PortIndex>(h + 0));
            for (int alt = 1; alt < h; ++alt) {
              const auto out = static_cast<device::PortIndex>(h + alt);
              c.backup_untagged(
                  sw, mac,
                  static_cast<std::uint16_t>(kBackupPriority -
                                             (alt - 1)),
                  {OutputAction::to(out)}, out);
            }
            // Tagged rotation: a detour bounced down from aggregation j
            // re-ascends via a *different* aggregation index — the only
            // way to flip core groups — consuming one budget unit.
            for (int j = 0; j < h; ++j) {
              const auto in = static_cast<device::PortIndex>(h + j);
              for (int i = 0; i + 1 < H; ++i) {
                for (int alt = 1; alt < h; ++alt) {
                  const auto out =
                      static_cast<device::PortIndex>(h + (j + alt) % h);
                  c.detour(sw, mac, i,
                           static_cast<std::uint16_t>(kDetourPriority -
                                                      (alt - 1)),
                           {SetVlanVidAction{c.vid(i + 1)},
                            OutputAction::to(out)},
                           out, in);
                }
              }
            }
          }
        }

        // --- aggregation switches ------------------------------------
        for (int q = 0; q < k; ++q) {
          for (int a = 0; a < h; ++a) {
            openflow::OpenFlowSwitch* agg = topo.agg(q, a);
            if (agg == nullptr) continue;  // wrapped: replicas route by MAC
            if (q == pm) {
              // In-pod: primary down to the home edge; on a dead down-link
              // the backup tags the packet V(0) and bounces it via a
              // sibling edge, which rotates it up a different aggregation.
              const device::PortIndex down = topo.agg_port_to_edge(em);
              c.guard_primary(*agg, mac, down);
              for (int alt = 1; alt < h; ++alt) {
                const auto out = topo.agg_port_to_edge((em + alt) % h);
                c.backup_untagged(
                    *agg, mac,
                    static_cast<std::uint16_t>(kBackupPriority -
                                               (alt - 1)),
                    {SetVlanVidAction{c.vid(0)}, OutputAction::to(out)}, out);
              }
              // Tagged delivery (all budget steps — delivery is free) and
              // tagged bounce alternates when the down-link is dead.
              for (int i = 0; i < H; ++i) {
                c.detour(*agg, mac, i, kDetourPriority,
                         {StripVlanAction{}, OutputAction::to(down)}, down);
                if (i + 1 >= H) continue;
                for (int alt = 1; alt < h; ++alt) {
                  const auto out = topo.agg_port_to_edge((em + alt) % h);
                  c.detour(*agg, mac, i,
                           static_cast<std::uint16_t>(kDetourPriority -
                                                      alt),
                           {SetVlanVidAction{c.vid(i + 1)},
                            OutputAction::to(out)},
                           out);
                }
              }
            } else {
              // Foreign pod: primary up via core slot 0; untagged backups
              // via the sibling cores of the same group.
              c.guard_primary(*agg, mac, topo.agg_port_to_core(0));
              for (int alt = 1; alt < h; ++alt) {
                const auto out = topo.agg_port_to_core(alt);
                c.backup_untagged(
                    *agg, mac,
                    static_cast<std::uint16_t>(kBackupPriority -
                                               (alt - 1)),
                    {OutputAction::to(out)}, out);
              }
              for (int i = 0; i + 1 < H; ++i) {
                // Tagged from a core: the core could not descend toward
                // the home pod — send the packet down to one of this
                // pod's edges so it can re-ascend via another index.
                for (int s = 0; s < h; ++s) {
                  const auto in = topo.agg_port_to_core(s);
                  for (int e2 = 0; e2 < h; ++e2) {
                    const auto out = topo.agg_port_to_edge(e2);
                    c.detour(*agg, mac, i,
                             static_cast<std::uint16_t>(
                                 kDetourPriority - e2),
                             {SetVlanVidAction{c.vid(i + 1)},
                              OutputAction::to(out)},
                             out, in);
                  }
                }
                // Tagged from an edge (rotation landed here): ascend to
                // any live core of this group.
                for (int j = 0; j < h; ++j) {
                  const auto in = static_cast<device::PortIndex>(j);
                  for (int s = 0; s < h; ++s) {
                    const auto out = topo.agg_port_to_core(s);
                    c.detour(*agg, mac, i,
                             static_cast<std::uint16_t>(
                                 kDetourPriority - s),
                             {SetVlanVidAction{c.vid(i + 1)},
                              OutputAction::to(out)},
                             out, in);
                  }
                }
              }
            }
          }
        }

        // --- core switches -------------------------------------------
        for (int cix = 0; cix < h * h; ++cix) {
          auto& sw = topo.core(cix);
          const device::PortIndex down = topo.core_port_to_pod(cix, pm);
          c.guard_primary(sw, mac, down);
          // Sibling-pod detour order: plain pods first, the wrapped pod
          // (whose aggregation of this group is the combiner) last — its
          // replicas carry tagged packets fine, but a detour that avoids
          // the protected position entirely is cheaper and more
          // predictable.
          std::vector<int> sibs;
          const auto wrapped_here = [&](int r) {
            return combine && combine->pod == r &&
                   combine->index == cix / h;
          };
          for (int t = 1; t < k; ++t) {
            const int r = (pm + t) % k;
            if (!wrapped_here(r)) sibs.push_back(r);
          }
          for (int t = 1; t < k; ++t) {
            const int r = (pm + t) % k;
            if (wrapped_here(r)) sibs.push_back(r);
          }
          for (std::size_t t = 0; t < sibs.size(); ++t) {
            const auto out = topo.core_port_to_pod(cix, sibs[t]);
            c.backup_untagged(
                sw, mac,
                static_cast<std::uint16_t>(kBackupPriority - t),
                {SetVlanVidAction{c.vid(0)}, OutputAction::to(out)}, out);
          }
          for (int i = 0; i + 1 < H; ++i) {
            // Tagged passthrough: a foreign aggregation re-ascended the
            // packet to this core — descend toward the home pod,
            // consuming one budget unit (this is what bounds transit
            // through the combiner, whose replicas never rewrite VIDs).
            c.detour(sw, mac, i, kDetourPriority,
                     {SetVlanVidAction{c.vid(i + 1)}, OutputAction::to(down)},
                     down);
            for (std::size_t t = 0; t < sibs.size(); ++t) {
              const auto out = topo.core_port_to_pod(cix, sibs[t]);
              c.detour(sw, mac, i,
                       static_cast<std::uint16_t>(kDetourPriority - 1 -
                                                  t),
                       {SetVlanVidAction{c.vid(i + 1)}, OutputAction::to(out)},
                       out);
            }
          }
        }
      }
    }
  }

  // Every non-wrapped switch received rules.
  c.summary.switches_touched = static_cast<std::size_t>(
      k * h /*edges*/ + k * h - (combine ? 1 : 0) /*aggs*/ + h * h /*cores*/);
  return c.summary;
}

}  // namespace netco::failover
