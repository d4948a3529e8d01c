#include "topo/figure3.h"

#include "controller/static_routing.h"

namespace netco::topo {

Figure3Topology::Figure3Topology(Figure3Options options)
    : options_(std::move(options)),
      simulator_(options_.seed),
      sampler_(simulator_),
      network_(simulator_) {
  sampler_.start();
  const auto h1_mac = net::MacAddress::from_id(1);
  const auto h2_mac = net::MacAddress::from_id(2);
  h1_ = &network_.add_node<host::Host>("h1", h1_mac,
                                       net::Ipv4Address::from_id(1));
  h2_ = &network_.add_node<host::Host>("h2", h2_mac,
                                       net::Ipv4Address::from_id(2));
  // Host access links and (for Linespeed) inter-switch links.
  const link::LinkConfig access_link{};

  if (options_.use_combiner) {
    combiner_ = core::build_combiner(
        network_, options_.combiner,
        {core::PortAttachment{.neighbor = h1_,
                              .link = access_link,
                              .local_macs = {h1_mac}},
         core::PortAttachment{.neighbor = h2_,
                              .link = access_link,
                              .local_macs = {h2_mac}}},
        "netco");
    combiner_.install_replica_route(h1_mac, 0);
    combiner_.install_replica_route(h2_mac, 1);
    if (options_.health.enabled && combiner_.compare != nullptr) {
      health_ = std::make_unique<health::HealthService>(simulator_, combiner_,
                                                        options_.health);
    }
    return;
  }

  // Linespeed reduction: h1 - s1 - r3 - s2 - h2.
  const openflow::SwitchProfile edge_profile = core::trusted_edge_profile();
  auto& s1 = network_.add_node<openflow::OpenFlowSwitch>("s1", edge_profile);
  auto& s2 = network_.add_node<openflow::OpenFlowSwitch>("s2", edge_profile);
  auto& r3 = network_.add_node<openflow::OpenFlowSwitch>(
      "r3", core::default_replica_profiles()[0]);

  const auto h1_s1 = network_.connect(*h1_, s1, access_link);
  const auto s1_r3 = network_.connect(s1, r3, access_link);
  const auto r3_s2 = network_.connect(r3, s2, access_link);
  const auto s2_h2 = network_.connect(s2, *h2_, access_link);

  // Broadcast (ARP) floods along the chain.
  for (auto* sw : {&s1, &r3, &s2}) {
    openflow::FlowSpec bcast;
    bcast.match.with_dl_dst(net::MacAddress::broadcast());
    bcast.actions = {openflow::OutputAction::flood()};
    bcast.priority = 5;
    sw->table().add(std::move(bcast));
  }

  controller::install_mac_route(s1, h2_mac, s1_r3.a_port);
  controller::install_mac_route(s1, h1_mac, h1_s1.b_port);
  controller::install_mac_route(r3, h2_mac, r3_s2.a_port);
  controller::install_mac_route(r3, h1_mac, s1_r3.b_port);
  controller::install_mac_route(s2, h2_mac, s2_h2.a_port);
  controller::install_mac_route(s2, h1_mac, r3_s2.b_port);
}

}  // namespace netco::topo
