// CombinerBuilder: assembles a robust network combiner (Fig. 2) around a
// router position in an existing Network.
//
// Given the router's n neighbors, the builder creates:
//   * one trusted edge switch per neighbor (hub + compare feeder + MAC
//     forwarding, all expressed as OF 1.0 rules — the paper's s1/s2);
//   * k untrusted replicas wired in a parallel circuit, each with a port
//     toward every edge. They are OpenFlow switches, or, when every
//     attachment names a router interface, LegacyRouter instances deployed
//     as exact configuration clones (the paper's conclusion: "our approach
//     can easily be extended to legacy routers"): same interface MACs and
//     IPs on every replica, so their L2 rewrites and TTL decrements produce
//     bit-identical copies that the memcmp compare accepts;
//   * a compare process attached to all edges as an out-of-band
//     controller (CompareService on a Controller with the chosen cost
//     profile: c_program() for Central*, pox() for POX3);
//   * anti-spoof screening on the replica-facing edge ports ("ensuring
//     its ingress port number matches its MAC source address"): packets
//     from a replica whose source MAC lives on this edge's own side are
//     dropped.
//
// The edge mode decides what the edges do with replica output; see
// EdgeMode.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "device/datapath.h"
#include "device/network.h"
#include "iproute/legacy_router.h"
#include "link/link.h"
#include "netco/compare_core.h"
#include "netco/compare_service.h"
#include "openflow/switch.h"

namespace netco::core {

/// The trusted edge's rule layout, highest priority first. Below the punt
/// come the dl_dst → neighbor routes at controller::kMacRoutePriority.
inline constexpr std::uint16_t kHubPriority = 30;     ///< neighbor → replicas
inline constexpr std::uint16_t kScreenPriority = 25;  ///< local dl_src → drop
/// Degraded bypass of the compare (src/resilience): above the punt so
/// traffic stops dying against a dead compare, below the screen so spoofed
/// source MACs still drop.
inline constexpr std::uint16_t kFailOpenPriority = 22;
inline constexpr std::uint16_t kPuntPriority = 20;     ///< replica → compare
/// Broadcast flood on the OpenFlow replicas (below their MAC routes).
inline constexpr std::uint16_t kReplicaFloodPriority = 5;

/// The trusted hub as flow rules on a trusted edge (§III: "the logic boils
/// down to multiplying the packets, in a stateless manner"): every packet
/// entering on `from` is output on each port in `to`, at kHubPriority.
void install_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from,
                       const std::vector<device::PortIndex>& to);

/// Removes the fan-out rule install_hub_rules() placed for `from` — a hub
/// crash. The hub is stateless, so a restart is exactly install_hub_rules()
/// again: the switch's port and registry counters continue from where they
/// were (counter continuity).
void remove_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from);

/// What the trusted edges do with the replicas' output.
enum class EdgeMode {
  /// Prevention: every copy is punted to the compare, which releases the
  /// majority. With compare.sampling.enabled, the §XII fast-path tap
  /// short-circuits the punt for all but the elected packets.
  kCompare,
  /// The paper's Dup* reduction: packets are split but never combined —
  /// duplicates flow straight through to the destination. No compare.
  kDup,
  /// §IX sampling detection: replica 0's output is forwarded downstream
  /// unverified, and a content-sampled subset of every replica's copies
  /// goes to a first-copy, verify-only compare that raises mismatch alarms.
  kDetect,
};

/// One neighbor of the router position being wrapped.
struct PortAttachment {
  device::Node* neighbor = nullptr;       ///< existing node to splice to
  link::LinkConfig link;                   ///< edge ↔ neighbor link
  /// MACs of hosts reachable *via this neighbor* (this edge's own side).
  std::vector<net::MacAddress> local_macs;
  /// The logical router's interface on this port, cloned to every replica.
  /// Set on every attachment, the replicas are legacy routers; set on
  /// none, they are OpenFlow switches.
  std::optional<iproute::Interface> router_interface = std::nullopt;
};

/// Combiner construction options.
struct CombinerOptions {
  int k = 3;  ///< number of redundant replicas
  /// Compare element configuration (k is overridden with the value above;
  /// kDetect forces the first-copy policy and verify-only).
  CompareConfig compare;
  /// Compare process personality: c_program() → Central*, pox() → POX*.
  controller::CostProfile compare_profile =
      controller::CostProfile::c_program();
  EdgeMode mode = EdgeMode::kCompare;
  /// kDetect: fraction of packets escalated to the compare, in [0, 1].
  double detect_sample_rate = 0.05;
  /// How long a flood-flagged replica port stays blocked (zero = forever).
  sim::Duration block_duration = sim::Duration::zero();
};

/// Handles to everything a built combiner consists of.
struct CombinerInstance {
  std::vector<openflow::OpenFlowSwitch*> edges;     ///< one per attachment
  /// The k untrusted OpenFlow replicas (empty for legacy routers).
  std::vector<openflow::OpenFlowSwitch*> replicas;
  /// The k cloned legacy routers (empty for OpenFlow replicas).
  std::vector<iproute::LegacyRouter*> routers;

  /// Port of edges[i] toward its neighbor.
  std::vector<device::PortIndex> edge_neighbor_port;
  /// Port created on attachment i's neighbor, toward edges[i].
  std::vector<device::PortIndex> neighbor_port;
  /// Port of edges[i] toward replica j: edge_replica_port[i][j].
  std::vector<std::vector<device::PortIndex>> edge_replica_port;
  /// Port of replica j toward edges[i]: replica_edge_port[j][i].
  std::vector<std::vector<device::PortIndex>> replica_edge_port;
  /// The edge↔replica links: edge_replica_link[i][j] (failure injection).
  std::vector<std::vector<link::Link*>> edge_replica_link;

  /// The compare process (nullptr under EdgeMode::kDup).
  std::unique_ptr<controller::Controller> compare_controller;
  std::unique_ptr<CompareService> compare;

  /// The edges' datapath hooks, one per edge: a FastPathTap (§XII) when
  /// options.compare.sampling.enabled, a SamplingEdgeLogic (§IX) under
  /// kDetect, none otherwise.
  std::vector<std::unique_ptr<device::DatapathInterceptor>> edge_hooks;

  /// Shadow compare cores registered by a warm standby (src/resilience,
  /// one per edge; non-owning). The health subsystem mirrors every
  /// set_replica_live transition into these so a promoted standby starts
  /// with the same live set the primary had.
  std::vector<CompareCore*> shadow_cores;

  /// Installs "dl_dst=mac → toward attachment `idx`" into every OpenFlow
  /// replica — the routing the original router would have done.
  void install_replica_route(const net::MacAddress& mac, std::size_t idx);

  /// Installs prefix/len → next hop (out toward attachment `idx`, addressed
  /// to `next_mac`) into every legacy router's FIB.
  void add_route(net::Ipv4Address prefix, int len, std::size_t idx,
                 const net::MacAddress& next_mac);
};

/// Builds a combiner around a router position whose neighbors are
/// `attachments`. `name_prefix` namespaces the created node names
/// ("<prefix>-e0", "<prefix>-r1", ...). Replica routing must be installed
/// afterwards (install_replica_route, add_route or custom rules).
CombinerInstance build_combiner(device::Network& network,
                                const CombinerOptions& options,
                                const std::vector<PortAttachment>& attachments,
                                const std::string& name_prefix);

/// The replica vendor personalities, cycled over the k replicas (the
/// diversity assumption made concrete): three distinct "vendors" with
/// slightly different pipeline latencies. Legacy routers take only the
/// processing delay.
std::vector<openflow::SwitchProfile> default_replica_profiles();

/// The trusted edge switch personality: simple hardware with a 5 µs
/// pipeline. Every topology's trusted edges use it.
openflow::SwitchProfile trusted_edge_profile();

}  // namespace netco::core
