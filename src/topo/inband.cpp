#include "topo/inband.h"

#include "common/fmt.h"
#include "controller/static_routing.h"

namespace netco::topo {

namespace {

constexpr int kReplicas = 3;
constexpr std::uint64_t kSeed = 1;

}  // namespace

InbandCombinerTopology::InbandCombinerTopology()
    : simulator_(kSeed), network_(simulator_) {
  build();
}

void InbandCombinerTopology::build() {
  const int k = kReplicas;
  const auto h1_mac = net::MacAddress::from_id(1);
  const auto h2_mac = net::MacAddress::from_id(2);
  const link::LinkConfig wire{};

  h1_ = &network_.add_node<host::Host>("h1", h1_mac,
                                       net::Ipv4Address::from_id(1));
  h2_ = &network_.add_node<host::Host>("h2", h2_mac,
                                       net::Ipv4Address::from_id(2));

  const openflow::SwitchProfile edge_profile = core::trusted_edge_profile();
  ea_ = &network_.add_node<openflow::OpenFlowSwitch>("eA", edge_profile);
  eb_ = &network_.add_node<openflow::OpenFlowSwitch>("eB", edge_profile);

  core::MiddleboxConfig mb_config;
  mb_config.compare.k = k;
  mb_ab_ = &network_.add_node<core::CompareMiddlebox>("mbAB", mb_config);
  mb_ba_ = &network_.add_node<core::CompareMiddlebox>("mbBA", mb_config);

  const auto vendors = core::default_replica_profiles();
  for (int j = 0; j < k; ++j) {
    replicas_.push_back(&network_.add_node<openflow::OpenFlowSwitch>(
        fmt("r{}", j), vendors[static_cast<std::size_t>(j) % vendors.size()]));
  }

  // Wiring. Edge ports: 0 = host, 1..k = replicas, k+1 = from middlebox.
  // Replica ports: 0 = eA, 1 = mbAB, 2 = eB, 3 = mbBA.
  network_.connect(*ea_, *h1_, wire);
  network_.connect(*eb_, *h2_, wire);
  for (int j = 0; j < k; ++j) {
    network_.connect(*ea_, *replicas_[static_cast<std::size_t>(j)],
                     wire);  // r port 0
  }
  for (int j = 0; j < k; ++j) {
    network_.connect(*replicas_[static_cast<std::size_t>(j)], *mb_ab_,
                     wire);  // r port 1, mbAB port j
  }
  for (int j = 0; j < k; ++j) {
    network_.connect(*eb_, *replicas_[static_cast<std::size_t>(j)],
                     wire);  // r port 2; eB port 1+j
  }
  for (int j = 0; j < k; ++j) {
    network_.connect(*replicas_[static_cast<std::size_t>(j)], *mb_ba_,
                     wire);  // r port 3, mbBA port j
  }
  network_.connect(*mb_ab_, *eb_, wire);  // mbAB port k; eB port k+1
  network_.connect(*mb_ba_, *ea_, wire);  // mbBA port k; eA port k+1

  // Edge rules.
  const auto program_edge = [&](openflow::OpenFlowSwitch& edge,
                                const net::MacAddress& local_mac) {
    // Hub: host traffic to all replicas.
    openflow::FlowSpec hub;
    hub.match.with_in_port(0);
    for (int j = 0; j < k; ++j) {
      hub.actions.push_back(
          openflow::OutputAction::to(static_cast<device::PortIndex>(1 + j)));
    }
    hub.priority = 30;
    edge.table().add(std::move(hub));

    // Direct replica → edge traffic is never legitimate here: drop.
    for (int j = 0; j < k; ++j) {
      openflow::FlowSpec drop;
      drop.match.with_in_port(static_cast<device::PortIndex>(1 + j));
      drop.priority = 20;
      edge.table().add(std::move(drop));
    }

    // Released packets from the middlebox go to the host.
    controller::install_mac_route(edge, local_mac, 0);
  };
  program_edge(*ea_, h1_mac);
  program_edge(*eb_, h2_mac);

  // Replica routing: h2-bound → mbAB (port 1); h1-bound → mbBA (port 3).
  for (auto* replica : replicas_) {
    controller::install_mac_route(*replica, h2_mac, 1);
    controller::install_mac_route(*replica, h1_mac, 3);
  }
}

}  // namespace netco::topo
