// Focused tests for the CompareService deployment wrapper (out-of-band
// compare process): port- and VLAN-keyed replica identity, verify-only
// mode, unknown-port handling, and the middlebox node's service model.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "device/network.h"
#include "net/headers.h"
#include "netco/compare_service.h"
#include "netco/middlebox.h"
#include "openflow/switch.h"

namespace netco::core {
namespace {

using device::Network;

class Probe : public device::Node {
 public:
  using Node::Node;
  void handle_packet(device::PortIndex port, net::Packet packet) override {
    received.push_back({port, std::move(packet)});
  }
  std::vector<std::pair<device::PortIndex, net::Packet>> received;
};

net::Packet udp_packet(std::uint16_t id,
                       std::optional<net::VlanTag> vlan = std::nullopt) {
  std::vector<std::byte> payload(32, std::byte{0x11});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                          .src = net::MacAddress::from_id(1)},
      vlan,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                      .dst = net::Ipv4Address::from_id(2),
                      .identification = id},
      net::UdpHeader{.src_port = 1, .dst_port = 2}, payload);
}

/// Edge switch with three ingress probes (ports 0..2 = replicas) and one
/// egress probe (port 3), compare attached out-of-band.
struct ServiceFixture {
  sim::Simulator sim;
  Network net{sim};
  openflow::OpenFlowSwitch& edge;
  Probe& r0;
  Probe& r1;
  Probe& r2;
  Probe& out;
  CompareService service;
  controller::Controller controller;

  explicit ServiceFixture(bool verify_only = false)
      : edge(net.add_node<openflow::OpenFlowSwitch>("edge")),
        r0(net.add_node<Probe>("r0")),
        r1(net.add_node<Probe>("r1")),
        r2(net.add_node<Probe>("r2")),
        out(net.add_node<Probe>("out")),
        controller(sim, "cmp", service) {
    net.connect(edge, r0);
    net.connect(edge, r1);
    net.connect(edge, r2);
    net.connect(edge, out);

    for (device::PortIndex p = 0; p < 3; ++p) {
      openflow::FlowSpec punt;
      punt.match.with_in_port(p);
      punt.actions = {openflow::OutputAction::controller()};
      punt.priority = 20;
      edge.table().add(std::move(punt));
    }
    openflow::FlowSpec route;
    route.match.with_dl_dst(net::MacAddress::from_id(2));
    route.actions = {openflow::OutputAction::to(3)};
    route.priority = 10;
    edge.table().add(std::move(route));

    CompareService::EdgeConfig config;
    config.replica_ports = {{0, 0}, {1, 1}, {2, 2}};
    config.compare.k = 3;
    config.verify_only = verify_only;
    service.configure_edge("edge", std::move(config));
    controller.attach(edge);
  }
};

TEST(CompareService, MajorityReleaseReachesEgress) {
  ServiceFixture f;
  f.r0.send(0, udp_packet(1));
  f.r1.send(0, udp_packet(1));
  f.sim.run_for(sim::Duration::milliseconds(5));
  ASSERT_EQ(f.out.received.size(), 1u);
  EXPECT_EQ(f.out.received[0].second, udp_packet(1));
  const auto* stats = f.service.stats_for("edge");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->released, 1u);
}

TEST(CompareService, SingleCopyNeverReleases) {
  ServiceFixture f;
  f.r0.send(0, udp_packet(7));
  f.sim.run_for(sim::Duration::milliseconds(100));
  EXPECT_EQ(f.out.received.size(), 0u);
  EXPECT_GE(f.service.stats_for("edge")->evicted_timeout, 1u);
}

TEST(CompareService, VerifyOnlyNeverEmitsPacketOut) {
  ServiceFixture f(/*verify_only=*/true);
  f.r0.send(0, udp_packet(1));
  f.r1.send(0, udp_packet(1));
  f.r2.send(0, udp_packet(1));
  f.sim.run_for(sim::Duration::milliseconds(10));
  EXPECT_EQ(f.out.received.size(), 0u);
  EXPECT_GE(f.service.stats_for("edge")->ingested, 3u);
}

TEST(CompareService, UnknownPortCounted) {
  ServiceFixture f;
  // Punt traffic from the egress port (not a replica port).
  openflow::FlowSpec punt;
  punt.match.with_in_port(3);
  punt.actions = {openflow::OutputAction::controller()};
  punt.priority = 30;
  f.edge.table().add(std::move(punt));
  f.out.send(0, udp_packet(9));
  f.sim.run_for(sim::Duration::milliseconds(5));
  EXPECT_EQ(f.service.unknown_port_drops(), 1u);
}

TEST(CompareService, UnconfiguredSwitchIgnored) {
  ServiceFixture f;
  // A second switch attaches without configure_edge: packet-ins no-op.
  auto& other = f.net.add_node<openflow::OpenFlowSwitch>("other");
  auto& probe = f.net.add_node<Probe>("p");
  f.net.connect(other, probe);
  f.controller.attach(other);
  probe.send(0, udp_packet(3));  // miss → packet-in to the service
  f.sim.run_for(sim::Duration::milliseconds(5));
  EXPECT_EQ(f.service.stats_for("other"), nullptr);
}

TEST(CompareService, VlanKeyedReplicasCompareStripped) {
  // Virtualized mode: same packet over three tunnels, different tags.
  sim::Simulator sim;
  Network net(sim);
  auto& edge = net.add_node<openflow::OpenFlowSwitch>("edge");
  auto& in = net.add_node<Probe>("in");
  auto& out = net.add_node<Probe>("out");
  net.connect(edge, in);
  net.connect(edge, out);

  openflow::FlowSpec punt;
  punt.match.with_in_port(0);
  punt.actions = {openflow::OutputAction::controller()};
  punt.priority = 20;
  edge.table().add(std::move(punt));
  openflow::FlowSpec route;
  route.match.with_dl_dst(net::MacAddress::from_id(2));
  route.actions = {openflow::OutputAction::to(1)};
  route.priority = 10;
  edge.table().add(std::move(route));

  CompareService service;
  controller::Controller controller(sim, "cmp", service);
  CompareService::EdgeConfig config;
  config.replica_vlans = {{100, 0}, {101, 1}, {102, 2}};
  config.compare.k = 3;
  service.configure_edge("edge", std::move(config));
  controller.attach(edge);

  in.send(0, udp_packet(1, net::VlanTag{.vid = 100}));
  in.send(0, udp_packet(1, net::VlanTag{.vid = 101}));
  sim.run_for(sim::Duration::milliseconds(5));
  ASSERT_EQ(out.received.size(), 1u);
  // Released packet is the *untagged* original.
  const auto parsed = net::parse_packet(out.received[0].second);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->vlan.has_value());
}

TEST(CompareService, UntaggedPacketInVlanModeDropped) {
  sim::Simulator sim;
  Network net(sim);
  auto& edge = net.add_node<openflow::OpenFlowSwitch>("edge");
  auto& in = net.add_node<Probe>("in");
  net.connect(edge, in);
  openflow::FlowSpec punt;
  punt.match.with_in_port(0);
  punt.actions = {openflow::OutputAction::controller()};
  edge.table().add(std::move(punt));

  CompareService service;
  controller::Controller controller(sim, "cmp", service);
  CompareService::EdgeConfig config;
  config.replica_vlans = {{100, 0}};
  config.compare.k = 3;
  service.configure_edge("edge", std::move(config));
  controller.attach(edge);

  in.send(0, udp_packet(1));  // no tunnel tag
  sim.run_for(sim::Duration::milliseconds(5));
  EXPECT_EQ(service.unknown_port_drops(), 1u);
}

// Regression: the timed unblock lambda captured the edge state and
// dereferenced its control channel unconditionally. An edge that detached
// (switch crash / teardown) while the unblock timer was pending turned
// the recovery into a use-after-detach. The timer must notice the dead
// channel and do nothing.
TEST(CompareService, UnblockTimerSurvivesDetachedEdge) {
  sim::Simulator sim;
  Network net(sim);
  auto& edge = net.add_node<openflow::OpenFlowSwitch>("edge");
  auto& r0 = net.add_node<Probe>("r0");
  auto& r1 = net.add_node<Probe>("r1");
  net.connect(edge, r0);
  net.connect(edge, r1);
  for (device::PortIndex p = 0; p < 2; ++p) {
    openflow::FlowSpec punt;
    punt.match.with_in_port(p);
    punt.actions = {openflow::OutputAction::controller()};
    punt.priority = 20;
    edge.table().add(std::move(punt));
  }

  CompareService service;
  controller::Controller controller(sim, "cmp", service);
  CompareService::EdgeConfig config;
  config.replica_ports = {{0, 0}, {1, 1}};
  config.compare.k = 2;
  config.compare.garbage_limit_packets = 5;  // flood trips fast
  config.block_duration = sim::Duration::milliseconds(20);
  service.configure_edge("edge", std::move(config));
  controller.attach(edge);

  // §IV case 2: the same packet from the same replica, over and over.
  for (int i = 0; i < 10; ++i) r0.send(0, udp_packet(1));
  sim.run_for(sim::Duration::milliseconds(5));
  ASSERT_FALSE(service.alarms().empty());
  EXPECT_EQ(service.alarms().front().kind,
            CompareAlarm::Kind::kPortBlocked);

  // The edge goes away while the 20 ms unblock timer is pending.
  service.detach_edge("edge");
  sim.run_for(sim::Duration::milliseconds(50));
  SUCCEED();  // reaching here without a crash is the regression check
}

// --- inband middlebox node ----------------------------------------------

TEST(Middlebox, ReleasesOnQuorumAndIgnoresStragglers) {
  sim::Simulator sim;
  Network net(sim);
  MiddleboxConfig config;
  config.compare.k = 3;
  auto& mb = net.add_node<CompareMiddlebox>("mb", config);
  auto& r0 = net.add_node<Probe>("r0");
  auto& r1 = net.add_node<Probe>("r1");
  auto& r2 = net.add_node<Probe>("r2");
  auto& out = net.add_node<Probe>("out");
  net.connect(mb, r0);
  net.connect(mb, r1);
  net.connect(mb, r2);
  net.connect(mb, out);

  r0.send(0, udp_packet(5));
  r1.send(0, udp_packet(5));
  r2.send(0, udp_packet(5));
  sim.run_for(sim::Duration::milliseconds(5));
  EXPECT_EQ(out.received.size(), 1u);
  EXPECT_EQ(mb.middlebox_stats().released, 1u);
  EXPECT_EQ(mb.core().stats().late_after_release, 1u);
}

TEST(Middlebox, QueueOverflowDrops) {
  sim::Simulator sim;
  Network net(sim);
  MiddleboxConfig config;
  config.compare.k = 3;
  config.queue_limit = 4;
  config.per_packet = sim::Duration::seconds(1);  // glacial service
  auto& mb = net.add_node<CompareMiddlebox>("mb", config);
  auto& r0 = net.add_node<Probe>("r0");
  auto& r1 = net.add_node<Probe>("r1");
  auto& r2 = net.add_node<Probe>("r2");
  auto& out = net.add_node<Probe>("out");
  net.connect(mb, r0);
  net.connect(mb, r1);
  net.connect(mb, r2);
  net.connect(mb, out);

  for (std::uint16_t i = 0; i < 10; ++i) r0.send(0, udp_packet(i));
  sim.run_for(sim::Duration::milliseconds(50));
  EXPECT_GT(mb.middlebox_stats().dropped_queue, 0u);
}

}  // namespace
}  // namespace netco::core
