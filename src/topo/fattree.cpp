#include "topo/fattree.h"

#include <unordered_map>

#include "common/assert.h"
#include "common/fmt.h"
#include "controller/static_routing.h"

namespace netco::topo {
namespace {

/// Deterministic host MAC/IP id for (pod, edge, index).
std::uint32_t host_id(int k, int pod, int edge, int index) {
  const int h = k / 2;
  return static_cast<std::uint32_t>(pod * h * h + edge * h + index + 1);
}

}  // namespace

FatTreeTopology::FatTreeTopology(FatTreeOptions options)
    : options_(std::move(options)),
      simulator_(options_.seed),
      network_(simulator_) {
  NETCO_ASSERT_MSG(options_.k >= 2 && options_.k % 2 == 0,
                   "fat-tree arity must be even");
  if (options_.combine_agg) {
    // A combiner position outside the pod/index grid would silently build
    // a combiner-free tree (the wrapped-slot test never fires) while the
    // caller believes the protected position exists — fail loudly instead.
    NETCO_ASSERT_MSG(
        options_.combine_agg->pod >= 0 && options_.combine_agg->pod < options_.k,
        "combiner pod out of range");
    NETCO_ASSERT_MSG(options_.combine_agg->index >= 0 &&
                         options_.combine_agg->index < options_.k / 2,
                     "combiner aggregation index out of range");
    NETCO_ASSERT_MSG(options_.combiner.k >= 1,
                     "combiner needs at least one replica");
  }
  build();
  install_routes();
}

device::PortIndex FatTreeTopology::agg_port_to_edge(int edge_index) const {
  return static_cast<device::PortIndex>(edge_index);
}

device::PortIndex FatTreeTopology::agg_port_to_core(int core_slot) const {
  return static_cast<device::PortIndex>(options_.k / 2 + core_slot);
}

void FatTreeTopology::build() {
  const int k = options_.k;
  const int h = k / 2;
  const link::LinkConfig wire{};  // every link of the fabric

  // --- nodes --------------------------------------------------------------
  edges_.assign(static_cast<std::size_t>(k), {});
  aggs_.assign(static_cast<std::size_t>(k), {});
  hosts_.assign(static_cast<std::size_t>(k), {});
  for (int p = 0; p < k; ++p) {
    hosts_[static_cast<std::size_t>(p)].assign(static_cast<std::size_t>(h), {});
    for (int e = 0; e < h; ++e) {
      edges_[static_cast<std::size_t>(p)].push_back(
          &network_.add_node<openflow::OpenFlowSwitch>(fmt("e{}-{}", p, e)));
      for (int i = 0; i < h; ++i) {
        const auto id = host_id(k, p, e, i);
        hosts_[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)]
            .push_back(&network_.add_node<host::Host>(
                fmt("h{}-{}-{}", p, e, i), net::MacAddress::from_id(id),
                net::Ipv4Address::from_id(id)));
      }
    }
    for (int a = 0; a < h; ++a) {
      const bool wrapped = options_.combine_agg &&
                           options_.combine_agg->pod == p &&
                           options_.combine_agg->index == a;
      aggs_[static_cast<std::size_t>(p)].push_back(
          wrapped ? nullptr
                  : &network_.add_node<openflow::OpenFlowSwitch>(
                        fmt("a{}-{}", p, a)));
    }
  }
  for (int c = 0; c < h * h; ++c) {
    cores_.push_back(
        &network_.add_node<openflow::OpenFlowSwitch>(fmt("c{}", c)));
  }

  // --- wiring ---------------------------------------------------------------
  // Edge ports: hosts at [0, h), aggs at [h, k) in agg-index order.
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < h; ++e) {
      for (int i = 0; i < h; ++i) {
        const auto conn =
            network_.connect(*edges_[static_cast<std::size_t>(p)]
                                  [static_cast<std::size_t>(e)],
                             *hosts_[static_cast<std::size_t>(p)]
                                    [static_cast<std::size_t>(e)]
                                    [static_cast<std::size_t>(i)],
                             wire);
        fabric_links_.push_back(
            {edge_sid(p, e), conn.a_port, -1, conn.b_port, conn.link});
      }
    }
  }
  // Agg wiring: agg a gets edge ports [0, h) then core ports [h, k).
  // Core c gets one port per pod, in pod order (port index == pod).
  for (int p = 0; p < k; ++p) {
    for (int a = 0; a < h; ++a) {
      openflow::OpenFlowSwitch* agg = aggs_[static_cast<std::size_t>(p)]
                                           [static_cast<std::size_t>(a)];
      if (agg != nullptr) {
        for (int e = 0; e < h; ++e) {
          const auto conn =
              network_.connect(*agg, *edges_[static_cast<std::size_t>(p)]
                                            [static_cast<std::size_t>(e)],
                               wire);
          fabric_links_.push_back({agg_sid(p, a), conn.a_port, edge_sid(p, e),
                                   conn.b_port, conn.link});
        }
        for (int s = 0; s < h; ++s) {
          const auto conn = network_.connect(
              *agg, *cores_[static_cast<std::size_t>(a * h + s)],
              wire);
          fabric_links_.push_back({agg_sid(p, a), conn.a_port,
                                   core_sid(a * h + s), conn.b_port,
                                   conn.link});
        }
        continue;
      }
      // This is the wrapped position: attachments in the same order as a
      // plain agg's ports (edges first, then cores), so replica port
      // layout matches the original router exactly.
      std::vector<core::PortAttachment> attachments;
      for (int e = 0; e < h; ++e) {
        core::PortAttachment at;
        at.neighbor = edges_[static_cast<std::size_t>(p)]
                            [static_cast<std::size_t>(e)];
        at.link = wire;
        for (int i = 0; i < h; ++i) {
          at.local_macs.push_back(
              net::MacAddress::from_id(host_id(k, p, e, i)));
        }
        attachments.push_back(std::move(at));
      }
      for (int s = 0; s < h; ++s) {
        core::PortAttachment at;
        at.neighbor = cores_[static_cast<std::size_t>(a * h + s)];
        at.link = wire;
        // The "local side" of a core attachment is every host outside
        // this pod (they are reached through the core fabric).
        for (int q = 0; q < k; ++q) {
          if (q == p) continue;
          for (int e = 0; e < h; ++e) {
            for (int i = 0; i < h; ++i) {
              at.local_macs.push_back(
                  net::MacAddress::from_id(host_id(k, q, e, i)));
            }
          }
        }
        attachments.push_back(std::move(at));
      }
      combiner_ = core::build_combiner(network_, options_.combiner,
                                       attachments, fmt("netco-a{}-{}", p, a));
    }
  }
}

void FatTreeTopology::install_routes() {
  const int k = options_.k;
  const int h = k / 2;

  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < h; ++e) {
      for (int i = 0; i < h; ++i) {
        const auto mac = net::MacAddress::from_id(host_id(k, p, e, i));

        // Edge switches.
        for (int q = 0; q < k; ++q) {
          for (int e2 = 0; e2 < h; ++e2) {
            auto& edge_sw = *edges_[static_cast<std::size_t>(q)]
                                   [static_cast<std::size_t>(e2)];
            if (q == p && e2 == e) {
              controller::install_mac_route(
                  edge_sw, mac, static_cast<device::PortIndex>(i));
            } else {
              // Up-path via aggregation 0 (deterministic; no ECMP).
              controller::install_mac_route(
                  edge_sw, mac, static_cast<device::PortIndex>(h + 0));
            }
          }
        }

        // Aggregation switches (and combiner replicas at the wrapped slot).
        for (int q = 0; q < k; ++q) {
          for (int a = 0; a < h; ++a) {
            openflow::OpenFlowSwitch* agg = aggs_[static_cast<std::size_t>(q)]
                                                 [static_cast<std::size_t>(a)];
            const bool toward_edge = (q == p);
            const device::PortIndex out =
                toward_edge ? agg_port_to_edge(e) : agg_port_to_core(0);
            if (agg != nullptr) {
              controller::install_mac_route(*agg, mac, out);
            } else {
              const std::size_t attachment =
                  toward_edge ? static_cast<std::size_t>(e)
                              : static_cast<std::size_t>(h + 0);
              combiner_.install_replica_route(mac, attachment);
            }
          }
        }

        // Core switches: down toward pod p (core_port_to_pod resolves the
        // wrapped pod's shifted numbering via the combiner's records).
        for (int c = 0; c < h * h; ++c) {
          controller::install_mac_route(*cores_[static_cast<std::size_t>(c)],
                                        mac, core_port_to_pod(c, p));
        }
      }
    }
  }
}

host::Host& FatTreeTopology::host(int pod, int edge, int index) {
  return *hosts_.at(static_cast<std::size_t>(pod))
              .at(static_cast<std::size_t>(edge))
              .at(static_cast<std::size_t>(index));
}

openflow::OpenFlowSwitch& FatTreeTopology::edge(int pod, int index) {
  return *edges_.at(static_cast<std::size_t>(pod))
              .at(static_cast<std::size_t>(index));
}

openflow::OpenFlowSwitch* FatTreeTopology::agg(int pod, int index) {
  return aggs_.at(static_cast<std::size_t>(pod))
      .at(static_cast<std::size_t>(index));
}

openflow::OpenFlowSwitch& FatTreeTopology::core(int index) {
  return *cores_.at(static_cast<std::size_t>(index));
}

int FatTreeTopology::edge_sid(int pod, int index) const noexcept {
  const int h = options_.k / 2;
  return pod * h + index;
}

int FatTreeTopology::agg_sid(int pod, int index) const noexcept {
  const int h = options_.k / 2;
  return options_.k * h + pod * h + index;
}

int FatTreeTopology::core_sid(int index) const noexcept {
  const int h = options_.k / 2;
  return 2 * options_.k * h + index;
}

int FatTreeTopology::switch_count() const noexcept {
  const int h = options_.k / 2;
  return 2 * options_.k * h + h * h;
}

openflow::OpenFlowSwitch* FatTreeTopology::switch_by_sid(int sid) {
  const int k = options_.k;
  const int h = k / 2;
  if (sid < 0 || sid >= switch_count()) return nullptr;
  if (sid < k * h) {
    return edges_[static_cast<std::size_t>(sid / h)]
                 [static_cast<std::size_t>(sid % h)];
  }
  if (sid < 2 * k * h) {
    const int rel = sid - k * h;
    return aggs_[static_cast<std::size_t>(rel / h)]
                [static_cast<std::size_t>(rel % h)];  // null if wrapped
  }
  return cores_[static_cast<std::size_t>(sid - 2 * k * h)];
}

device::PortIndex FatTreeTopology::core_port_to_pod(int c, int p) const {
  const int h = options_.k / 2;
  // Ports were created pod-by-pod, so port index == pod — except on cores
  // attached to the wrapped position, whose port toward the wrapped pod
  // came from the combiner build (recorded). Pods before and after the
  // wrapped one keep their index because the combiner build happens at
  // exactly the wrapped pod's turn in the wiring sequence.
  if (options_.combine_agg && c / h == options_.combine_agg->index &&
      p == options_.combine_agg->pod) {
    return combiner_.neighbor_port[static_cast<std::size_t>(h + c % h)];
  }
  return static_cast<device::PortIndex>(p);
}

const FabricLink* FatTreeTopology::find_fabric_link(int sid_a,
                                                    int sid_b) const {
  for (const FabricLink& fl : fabric_links_) {
    if ((fl.a_sid == sid_a && fl.b_sid == sid_b) ||
        (fl.a_sid == sid_b && fl.b_sid == sid_a)) {
      return &fl;
    }
  }
  return nullptr;
}

}  // namespace topo
