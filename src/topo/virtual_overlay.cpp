#include "topo/virtual_overlay.h"

#include "common/assert.h"
#include "common/fmt.h"
#include "controller/static_routing.h"
#include "netco/combiner.h"

namespace netco::topo {

namespace {

constexpr std::uint64_t kSeed = 1;

}  // namespace

VirtualOverlayTopology::VirtualOverlayTopology(VirtualOverlayOptions options)
    : options_(options), simulator_(kSeed), network_(simulator_) {
  NETCO_ASSERT(options_.paths >= 2);
  NETCO_ASSERT(options_.hops_per_path >= 1);
  build();
}

openflow::OpenFlowSwitch& VirtualOverlayTopology::path_switch(int path,
                                                              int hop) {
  return *path_switches_.at(static_cast<std::size_t>(path))
              .at(static_cast<std::size_t>(hop));
}

void VirtualOverlayTopology::build() {
  const int k = options_.paths;
  const auto vendors = core::default_replica_profiles();
  const link::LinkConfig wire{};

  host_a_ = &network_.add_node<host::Host>("hA", net::MacAddress::from_id(1),
                                           net::Ipv4Address::from_id(1));
  host_b_ = &network_.add_node<host::Host>("hB", net::MacAddress::from_id(2),
                                           net::Ipv4Address::from_id(2));
  const openflow::SwitchProfile edge_profile = core::trusted_edge_profile();
  sa_ = &network_.add_node<openflow::OpenFlowSwitch>("sA", edge_profile);
  sb_ = &network_.add_node<openflow::OpenFlowSwitch>("sB", edge_profile);

  // Port 0 of each edge: the host.
  network_.connect(*sa_, *host_a_, wire);
  network_.connect(*sb_, *host_b_, wire);

  // Paths: port 1+i on each edge; path switches use port 0 toward sA-side,
  // port 1 toward sB-side.
  path_switches_.assign(static_cast<std::size_t>(k), {});
  for (int i = 0; i < k; ++i) {
    openflow::OpenFlowSwitch* prev = sa_;
    for (int hop = 0; hop < options_.hops_per_path; ++hop) {
      auto& sw = network_.add_node<openflow::OpenFlowSwitch>(
          fmt("p{}-{}", i, hop),
          vendors[static_cast<std::size_t>(i) % vendors.size()]);
      path_switches_[static_cast<std::size_t>(i)].push_back(&sw);
      network_.connect(*prev, sw, wire);
      prev = &sw;
    }
    network_.connect(*prev, *sb_, wire);

    // Cross-connect rules inside the path (pure transit).
    for (auto* sw : path_switches_[static_cast<std::size_t>(i)]) {
      openflow::FlowSpec fwd;
      fwd.match.with_in_port(0);
      fwd.actions = {openflow::OutputAction::to(1)};
      fwd.priority = 10;
      sw->table().add(std::move(fwd));
      openflow::FlowSpec rev;
      rev.match.with_in_port(1);
      rev.actions = {openflow::OutputAction::to(0)};
      rev.priority = 10;
      sw->table().add(std::move(rev));
    }
  }

  // The shared compare process, tunnel-tag keyed.
  compare_ = std::make_unique<core::CompareService>();
  controller_ = std::make_unique<controller::Controller>(
      simulator_, "virtual-compare", *compare_,
      controller::CostProfile::c_program());

  const auto setup_edge = [&](openflow::OpenFlowSwitch& edge,
                              const net::MacAddress& local_mac,
                              const net::MacAddress& remote_mac) {
    // Split: every packet from the host fans out on all tunnels, each copy
    // tagged with its path's VLAN (sequential OF 1.0 action semantics).
    openflow::FlowSpec split;
    split.match.with_in_port(0);
    for (int i = 0; i < k; ++i) {
      split.actions.push_back(openflow::SetVlanVidAction{
          static_cast<std::uint16_t>(VirtualOverlayOptions::kBaseVlan + i)});
      split.actions.push_back(
          openflow::OutputAction::to(static_cast<device::PortIndex>(1 + i)));
    }
    split.priority = core::kHubPriority;
    edge.table().add(std::move(split));

    core::CompareService::EdgeConfig config;
    config.compare.k = k;
    for (int i = 0; i < k; ++i) {
      const auto port = static_cast<device::PortIndex>(1 + i);
      // Anti-spoof screen: a tunnel must never deliver a packet claiming
      // to originate from this edge's own host.
      openflow::FlowSpec screen;
      screen.match.with_in_port(port).with_dl_src(local_mac);
      screen.actions = {};
      screen.priority = core::kScreenPriority;
      edge.table().add(std::move(screen));

      openflow::FlowSpec punt;
      punt.match.with_in_port(port);
      punt.actions = {openflow::OutputAction::controller()};
      punt.priority = core::kPuntPriority;
      edge.table().add(std::move(punt));

      config.replica_vlans[static_cast<std::uint16_t>(
          VirtualOverlayOptions::kBaseVlan + i)] = i;
    }
    // Released (untagged) packets go to the host by MAC.
    controller::install_mac_route(edge, local_mac, 0);
    (void)remote_mac;

    compare_->configure_edge(edge.name(), std::move(config));
    controller_->attach(edge);
  };

  setup_edge(*sa_, host_a_->mac(), host_b_->mac());
  setup_edge(*sb_, host_b_->mac(), host_a_->mac());
}

}  // namespace netco::topo
