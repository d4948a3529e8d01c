// Parametric k-ary fat-tree (Clos) datacenter topology — the environment
// of the paper's Fig. 1 and the §VI case study.
//
// Standard k-ary fat-tree: k pods; each pod has k/2 edge and k/2
// aggregation switches; (k/2)² core switches; each edge switch hosts k/2
// hosts. Routing is static and destination-MAC based ("we set up the
// Mininet network with routing based on MAC destination addresses", §VI),
// deterministic: up-paths always use aggregation/core index 0 — no ECMP,
// so the §VI attack position (pod 0, aggregation 0) is always on-path.
//
// Optionally one aggregation switch position is replaced by a NetCo
// robust combiner (the §VI third scenario).
#pragma once

#include <optional>
#include <vector>

#include "device/network.h"
#include "host/host.h"
#include "netco/combiner.h"
#include "openflow/switch.h"
#include "sim/simulator.h"

namespace netco::topo {

/// Identifies an aggregation switch position.
struct AggPosition {
  int pod = 0;
  int index = 0;
};

/// Fat-tree construction options.
struct FatTreeOptions {
  int k = 4;  ///< pods (even, >= 2); also the switch radix
  std::uint64_t seed = 1;
  /// If set, this aggregation position is built as a NetCo combiner
  /// instead of a single untrusted switch.
  std::optional<AggPosition> combine_agg;
  /// Combiner parameters used when combine_agg is set.
  core::CombinerOptions combiner;
};

/// One recorded switch↔switch (or switch↔host) wire of the fabric,
/// addressable by stable switch ids — what fault plans cut and the
/// failover compiler reasons about.
struct FabricLink {
  int a_sid = -1;                 ///< switch id of endpoint a
  device::PortIndex a_port = device::kNoPort;
  int b_sid = -1;                 ///< switch id of endpoint b; -1 = a host
  device::PortIndex b_port = device::kNoPort;
  link::Link* link = nullptr;
};

/// An instantiated fat-tree.
class FatTreeTopology {
 public:
  explicit FatTreeTopology(FatTreeOptions options);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] device::Network& network() noexcept { return network_; }

  /// Host at (pod, edge switch, host index), each in [0, k/2) except pod
  /// in [0, k).
  [[nodiscard]] host::Host& host(int pod, int edge, int index);

  /// Edge switch `index` of `pod`.
  [[nodiscard]] openflow::OpenFlowSwitch& edge(int pod, int index);

  /// Aggregation switch at the position, or nullptr if it is the
  /// combiner-wrapped one.
  [[nodiscard]] openflow::OpenFlowSwitch* agg(int pod, int index);

  /// Core switch `index` in [0, (k/2)²).
  [[nodiscard]] openflow::OpenFlowSwitch& core(int index);

  /// The combiner instance (valid when combine_agg was set).
  [[nodiscard]] core::CombinerInstance& combiner() noexcept {
    return combiner_;
  }

  /// Port of agg(pod,index) (or of each combiner replica) that leads to
  /// `edge_index` / to core attachment `core_slot` (slot in [0, k/2)).
  /// Valid for the wrapped position too (ports are identical on every
  /// replica by construction).
  [[nodiscard]] device::PortIndex agg_port_to_edge(int edge_index) const;
  [[nodiscard]] device::PortIndex agg_port_to_core(int core_slot) const;

  [[nodiscard]] const FatTreeOptions& options() const noexcept {
    return options_;
  }

  // --- stable switch ids (fault plans, failover compiler) ---------------
  // Edges: [0, k·h) pod-major (sid = pod·h + index); aggregations:
  // [k·h, 2k·h) (sid = k·h + pod·h + index); cores: [2k·h, 2k·h + h²).
  // The wrapped aggregation position keeps its sid but resolves to
  // nullptr (it is k replicas behind trusted edges, not one switch).
  [[nodiscard]] int edge_sid(int pod, int index) const noexcept;
  [[nodiscard]] int agg_sid(int pod, int index) const noexcept;
  [[nodiscard]] int core_sid(int index) const noexcept;
  [[nodiscard]] int switch_count() const noexcept;
  [[nodiscard]] openflow::OpenFlowSwitch* switch_by_sid(int sid);

  /// Down-port of core `c` toward pod `p` (resolves the wrapped pod's
  /// shifted numbering via the combiner's recorded neighbor ports).
  [[nodiscard]] device::PortIndex core_port_to_pod(int c, int p) const;

  /// Every wire of the fabric in construction order (host wires carry
  /// b_sid = -1).
  [[nodiscard]] const std::vector<FabricLink>& fabric_links() const noexcept {
    return fabric_links_;
  }

  /// The recorded wire between two switch sids, either orientation;
  /// nullptr when the pair is not adjacent (or involves the wrapped
  /// position, whose wires belong to the combiner).
  [[nodiscard]] const FabricLink* find_fabric_link(int sid_a, int sid_b) const;

 private:
  void build();
  void install_routes();

  FatTreeOptions options_;
  sim::Simulator simulator_;
  device::Network network_;

  // Indexed [pod][i] / [pod][edge][h].
  std::vector<std::vector<openflow::OpenFlowSwitch*>> edges_;
  std::vector<std::vector<openflow::OpenFlowSwitch*>> aggs_;  // null if wrapped
  std::vector<openflow::OpenFlowSwitch*> cores_;
  std::vector<std::vector<std::vector<host::Host*>>> hosts_;
  core::CombinerInstance combiner_;
  std::vector<FabricLink> fabric_links_;

  // Port bookkeeping (uniform by construction order):
  // hosts occupy edge ports [0, k/2), aggs occupy edge ports [k/2, k).
  // On an agg: edges occupy ports [0, k/2), cores [k/2, k).
  // On a core: pod p's agg occupies port p.
};

}  // namespace netco::topo
