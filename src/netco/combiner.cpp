#include "netco/combiner.h"

#include <utility>

#include "common/assert.h"
#include "common/fmt.h"
#include "controller/static_routing.h"
#include "netco/fastpath.h"
#include "netco/sampling.h"

namespace netco::core {

std::vector<openflow::SwitchProfile> default_replica_profiles() {
  // Three "vendors" (think: different manufacturers/countries) with
  // slightly different ASIC latencies — harmless skew that exercises the
  // compare's reordering tolerance.
  return {
      openflow::SwitchProfile{.vendor = "vendor-a",
                              .processing_delay =
                                  sim::Duration::microseconds(15)},
      openflow::SwitchProfile{.vendor = "vendor-b",
                              .processing_delay =
                                  sim::Duration::nanoseconds(16500)},
      openflow::SwitchProfile{.vendor = "vendor-c",
                              .processing_delay =
                                  sim::Duration::nanoseconds(13800)},
  };
}

openflow::SwitchProfile trusted_edge_profile() {
  return openflow::SwitchProfile{
      .vendor = "trusted-edge",
      .processing_delay = sim::Duration::microseconds(5)};
}

void install_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from,
                       const std::vector<device::PortIndex>& to) {
  openflow::FlowSpec spec;
  spec.match.with_in_port(from);
  for (device::PortIndex port : to) {
    spec.actions.push_back(openflow::OutputAction::to(port));
  }
  spec.priority = kHubPriority;
  sw.table().add(std::move(spec));
}

void remove_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from) {
  openflow::Match match;
  match.with_in_port(from);
  sw.table().remove_strict(match, kHubPriority);
}

void CombinerInstance::install_replica_route(const net::MacAddress& mac,
                                             std::size_t idx) {
  NETCO_ASSERT(idx < edges.size());
  for (std::size_t j = 0; j < replicas.size(); ++j) {
    controller::install_mac_route(*replicas[j], mac, replica_edge_port[j][idx]);
  }
}

void CombinerInstance::add_route(net::Ipv4Address prefix, int len,
                                 std::size_t idx,
                                 const net::MacAddress& next_mac) {
  NETCO_ASSERT(idx < edges.size());
  for (std::size_t j = 0; j < routers.size(); ++j) {
    routers[j]->add_route(prefix, len,
                          iproute::NextHop{.port = replica_edge_port[j][idx],
                                           .next_mac = next_mac});
  }
}

namespace {

/// Installs "dl_dst=ff:ff:ff:ff:ff:ff → FLOOD" (ARP and other broadcast
/// traffic crosses the replicas like any switch would forward it).
void install_broadcast_flood(openflow::OpenFlowSwitch& sw) {
  openflow::FlowSpec spec;
  spec.match.with_dl_dst(net::MacAddress::broadcast());
  spec.actions = {openflow::OutputAction::flood()};
  spec.priority = kReplicaFloodPriority;
  sw.table().add(std::move(spec));
}

}  // namespace

CombinerInstance build_combiner(device::Network& network,
                                const CombinerOptions& options,
                                const std::vector<PortAttachment>& attachments,
                                const std::string& name_prefix) {
  NETCO_ASSERT(options.k >= 2);
  NETCO_ASSERT(!attachments.empty());
  NETCO_ASSERT_MSG(options.mode != EdgeMode::kDetect ||
                       !options.compare.sampling.enabled,
                   "kDetect and compare.sampling both need the edge hook");
  const bool legacy = attachments.front().router_interface.has_value();
  for (const auto& attachment : attachments) {
    NETCO_ASSERT_MSG(attachment.router_interface.has_value() == legacy,
                     "router interfaces must be set on all attachments or "
                     "on none");
  }
  const auto k = static_cast<std::size_t>(options.k);
  const std::size_t n = attachments.size();

  CombinerInstance inst;
  const auto profiles = default_replica_profiles();

  // 1. The k untrusted replicas: OpenFlow switches with standard broadcast
  //    flooding, or legacy routers whose interface configuration is
  //    identical on every replica (they all emulate the same logical
  //    router).
  std::vector<device::Node*> replica_nodes;
  for (std::size_t j = 0; j < k; ++j) {
    const auto name = fmt("{}-r{}", name_prefix, j);
    const auto& profile = profiles[j % profiles.size()];
    if (legacy) {
      auto& router = network.add_node<iproute::LegacyRouter>(
          name, profile.processing_delay);
      for (const auto& attachment : attachments) {
        router.add_interface(*attachment.router_interface);
      }
      inst.routers.push_back(&router);
      replica_nodes.push_back(&router);
    } else {
      auto& replica = network.add_node<openflow::OpenFlowSwitch>(name, profile);
      install_broadcast_flood(replica);
      inst.replicas.push_back(&replica);
      replica_nodes.push_back(&replica);
    }
  }

  // 2. One trusted edge per attachment, spliced to the neighbor.
  const openflow::SwitchProfile edge_profile = trusted_edge_profile();
  inst.edge_replica_port.resize(n);
  inst.replica_edge_port.resize(k);
  for (std::size_t i = 0; i < n; ++i) {
    auto& edge = network.add_node<openflow::OpenFlowSwitch>(
        fmt("{}-e{}", name_prefix, i), edge_profile);
    inst.edges.push_back(&edge);

    const auto conn =
        network.connect(*attachments[i].neighbor, edge, attachments[i].link);
    inst.edge_neighbor_port.push_back(conn.b_port);
    inst.neighbor_port.push_back(conn.a_port);
  }

  // 3. Full mesh edge ↔ replica. A replica's port toward edge i is its
  //    i-th port, the index a legacy router's interface list relies on.
  inst.edge_replica_link.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const auto conn = network.connect(*inst.edges[i], *replica_nodes[j],
                                        link::LinkConfig{});
      inst.edge_replica_port[i].push_back(conn.a_port);
      inst.replica_edge_port[j].push_back(conn.b_port);
      inst.edge_replica_link[i].push_back(conn.link);
    }
  }

  // 4. Compare process (unless this is a Dup reduction).
  if (options.mode != EdgeMode::kDup) {
    inst.compare = std::make_unique<CompareService>();
    inst.compare_controller = std::make_unique<controller::Controller>(
        network.simulator(), fmt("{}-compare", name_prefix), *inst.compare,
        options.compare_profile);
  }

  // 5. Rules on each edge.
  for (std::size_t i = 0; i < n; ++i) {
    auto& edge = *inst.edges[i];
    const device::PortIndex neighbor_port = inst.edge_neighbor_port[i];
    const auto& local_macs = attachments[i].local_macs;

    // Hub: every packet from the neighbor is copied to all k replicas.
    install_hub_rules(edge, neighbor_port, inst.edge_replica_port[i]);

    // Broadcast (ARP who-has) and MAC forwarding toward the neighbor: used
    // by released packets via packet-out OFPP_TABLE, and by the Dup
    // reduction directly.
    controller::install_mac_route(edge, net::MacAddress::broadcast(),
                                  neighbor_port);
    for (const auto& mac : local_macs) {
      controller::install_mac_route(edge, mac, neighbor_port);
    }

    // Dup: the replicas' output falls through to the routes above.
    if (options.mode == EdgeMode::kDup) continue;

    // Compare feeding with anti-spoof screening: a packet arriving from a
    // replica may only carry a source MAC that does NOT live on this
    // edge's own side (it must have entered the combiner elsewhere).
    // Legacy replicas' own frames (ICMP replies, time-exceeded) carry the
    // router interface MAC as dl_src and pass.
    CompareService::EdgeConfig edge_config;
    edge_config.compare = options.compare;
    edge_config.compare.k = options.k;
    edge_config.block_duration = options.block_duration;
    if (options.mode == EdgeMode::kDetect) {
      edge_config.compare.policy = ReleasePolicy::kFirstCopy;
      edge_config.verify_only = true;  // the edge hook already forwarded
    }

    for (std::size_t j = 0; j < k; ++j) {
      const device::PortIndex rp = inst.edge_replica_port[i][j];
      edge_config.replica_ports[rp] = static_cast<int>(j);

      // Screen: this edge's own MACs coming back from a replica = spoof.
      for (const auto& mac : local_macs) {
        openflow::FlowSpec drop;
        drop.match.with_in_port(rp).with_dl_src(mac);
        drop.actions = {};  // drop
        drop.priority = kScreenPriority;
        edge.table().add(std::move(drop));
      }
      // Everything else from a replica goes to the compare.
      openflow::FlowSpec punt;
      punt.match.with_in_port(rp);
      punt.actions = {openflow::OutputAction::controller()};
      punt.priority = kPuntPriority;
      edge.table().add(std::move(punt));
    }
    auto replica_ports = edge_config.replica_ports;  // for the edge hook

    inst.compare->configure_edge(edge.name(), std::move(edge_config));
    inst.compare_controller->attach(edge);

    // The edge hook sees replica copies before the rules above. Under
    // sampled verification (§XII) it short-circuits the packet-in round
    // trip, and only the 1-in-N elected packets take the punt; under
    // detection (§IX) it forwards replica 0's copy and escalates the
    // sampled ones. Both let spoofed copies fall through to the screen.
    std::unique_ptr<device::DatapathInterceptor> hook;
    if (options.mode == EdgeMode::kDetect) {
      hook = std::make_unique<SamplingEdgeLogic>(SamplingEdgeLogic::Config{
          .replica_ports = std::move(replica_ports),
          .local_macs = local_macs,
          .neighbor_port = neighbor_port,
          .sample_rate = options.detect_sample_rate});
    } else if (options.compare.sampling.enabled) {
      hook = std::make_unique<FastPathTap>(
          FastPathTap::Config{.replica_ports = std::move(replica_ports),
                              .local_macs = local_macs},
          inst.compare->core_for(edge.name()), &edge);
    }
    if (hook != nullptr) {
      edge.set_interceptor(hook.get());
      inst.edge_hooks.push_back(std::move(hook));
    }
  }

  return inst;
}

}  // namespace netco::core
