// Unit tests for the OpenFlow 1.0 substrate: match semantics, flow table
// operations, and the switch datapath.
#include <gtest/gtest.h>

#include <vector>

#include "device/network.h"
#include "net/headers.h"
#include "openflow/channel.h"
#include "openflow/flow_table.h"
#include "openflow/match.h"
#include "openflow/switch.h"
#include "sim/simulator.h"

namespace netco::openflow {
namespace {

using device::Network;
using device::PortIndex;

net::Packet udp_packet(std::uint32_t src_id, std::uint32_t dst_id,
                       std::uint16_t sport = 10, std::uint16_t dport = 20,
                       std::optional<net::VlanTag> vlan = std::nullopt) {
  std::vector<std::byte> payload(64, std::byte{0});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(dst_id),
                          .src = net::MacAddress::from_id(src_id)},
      vlan,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(src_id),
                      .dst = net::Ipv4Address::from_id(dst_id)},
      net::UdpHeader{.src_port = sport, .dst_port = dport}, payload);
}

Match key_of(const net::Packet& p, PortIndex port) {
  return Match::exact_from(*net::parse_packet(p), port);
}

// --- Match ----------------------------------------------------------------

TEST(Match, WildcardMatchesEverything) {
  EXPECT_TRUE(Match{}.covers(key_of(udp_packet(1, 2), 0)));
}

TEST(Match, SingleFieldMatch) {
  Match rule;
  rule.with_dl_dst(net::MacAddress::from_id(2));
  EXPECT_TRUE(rule.covers(key_of(udp_packet(1, 2), 0)));
  EXPECT_FALSE(rule.covers(key_of(udp_packet(1, 3), 0)));
}

TEST(Match, InPortMatch) {
  Match rule;
  rule.with_in_port(3);
  EXPECT_TRUE(rule.covers(key_of(udp_packet(1, 2), 3)));
  EXPECT_FALSE(rule.covers(key_of(udp_packet(1, 2), 4)));
}

TEST(Match, VlanFieldDistinguishesUntagged) {
  Match untagged;
  untagged.with_dl_vlan(kVlanNone);
  EXPECT_TRUE(untagged.covers(key_of(udp_packet(1, 2), 0)));
  EXPECT_FALSE(untagged.covers(
      key_of(udp_packet(1, 2, 10, 20, net::VlanTag{.vid = 5}), 0)));

  Match tagged;
  tagged.with_dl_vlan(5);
  EXPECT_TRUE(tagged.covers(
      key_of(udp_packet(1, 2, 10, 20, net::VlanTag{.vid = 5}), 0)));
  EXPECT_FALSE(tagged.covers(key_of(udp_packet(1, 2), 0)));
}

TEST(Match, TransportPortsMatch) {
  Match rule;
  rule.with_nw_proto(net::IpProto::Udp).with_tp_dst(20);
  EXPECT_TRUE(rule.covers(key_of(udp_packet(1, 2, 10, 20), 0)));
  EXPECT_FALSE(rule.covers(key_of(udp_packet(1, 2, 10, 21), 0)));
}

TEST(Match, FieldAbsentInKeyNeverMatches) {
  // Rule wants tp_dst, but a non-IP frame has no transport layer.
  Match rule;
  rule.with_tp_dst(20);
  net::Packet raw = net::build_ethernet(
      net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                          .src = net::MacAddress::from_id(1),
                          .ethertype = 0x8899},
      std::nullopt, {});
  EXPECT_FALSE(rule.covers(key_of(raw, 0)));
}

TEST(Match, StrictEquality) {
  Match a, b;
  a.with_dl_dst(net::MacAddress::from_id(2)).with_in_port(1);
  b.with_dl_dst(net::MacAddress::from_id(2)).with_in_port(1);
  EXPECT_TRUE(a.strictly_equals(b));
  b.with_tp_dst(9);
  EXPECT_FALSE(a.strictly_equals(b));
}

TEST(Match, ToStringMentionsFields) {
  Match rule;
  rule.with_in_port(2).with_dl_dst(net::MacAddress::from_id(5));
  const auto text = rule.to_string();
  EXPECT_NE(text.find("in_port=2"), std::string::npos);
  EXPECT_NE(text.find("dl_dst="), std::string::npos);
  EXPECT_EQ(Match{}.to_string(), "(any)");
}

// --- FlowTable --------------------------------------------------------------

TEST(FlowTable, HighestPriorityWins) {
  FlowTable table;
  FlowSpec low;
  low.match.with_dl_dst(net::MacAddress::from_id(2));
  low.actions = {OutputAction::to(1)};
  low.priority = 1;
  FlowSpec high = low;
  high.actions = {OutputAction::to(2)};
  high.priority = 10;
  table.add(low);
  table.add(high);

  const FlowSpec* rule = table.lookup(key_of(udp_packet(1, 2), 0));
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->priority, 10);
}

TEST(FlowTable, AddReplacesStrictlyIdenticalMatch) {
  FlowTable table;
  FlowSpec spec;
  spec.match.with_dl_dst(net::MacAddress::from_id(2));
  spec.actions = {OutputAction::to(1)};
  spec.priority = 5;
  table.add(spec);
  spec.actions = {OutputAction::to(9)};
  table.add(spec);
  EXPECT_EQ(table.size(), 1u);
  const FlowSpec* rule = table.lookup(key_of(udp_packet(1, 2), 0));
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(std::get<OutputAction>(rule->actions[0]).port, 9u);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable table;
  FlowSpec spec;
  spec.match.with_dl_dst(net::MacAddress::from_id(7));
  spec.actions = {OutputAction::to(1)};
  table.add(spec);
  EXPECT_EQ(table.lookup(key_of(udp_packet(1, 2), 0)), nullptr);
}

TEST(FlowTable, StrictDeleteNeedsExactPriority) {
  FlowTable table;
  FlowSpec spec;
  spec.match.with_in_port(0);
  spec.actions = {OutputAction::to(1)};
  spec.priority = 5;
  table.add(spec);
  EXPECT_EQ(table.remove_strict(spec.match, 4), 0u);
  EXPECT_EQ(table.remove_strict(spec.match, 5), 1u);
}

// --- Switch datapath --------------------------------------------------------

/// Records all deliveries.
class Probe : public device::Node {
 public:
  using Node::Node;
  void handle_packet(device::PortIndex port, net::Packet packet) override {
    received.push_back({port, std::move(packet)});
  }
  std::vector<std::pair<device::PortIndex, net::Packet>> received;
};

struct SwitchFixture {
  sim::Simulator sim;
  Network net{sim};
  OpenFlowSwitch& sw;
  Probe& h0;
  Probe& h1;
  Probe& h2;

  SwitchFixture()
      : sw(net.add_node<OpenFlowSwitch>("sw")),
        h0(net.add_node<Probe>("h0")),
        h1(net.add_node<Probe>("h1")),
        h2(net.add_node<Probe>("h2")) {
    net.connect(sw, h0);
    net.connect(sw, h1);
    net.connect(sw, h2);
  }
};

TEST(Switch, ForwardsOnMatch) {
  SwitchFixture f;
  FlowSpec spec;
  spec.match.with_dl_dst(net::MacAddress::from_id(2));
  spec.actions = {OutputAction::to(1)};
  f.sw.table().add(spec);

  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 1u);
  EXPECT_EQ(f.h2.received.size(), 0u);
  EXPECT_EQ(f.sw.stats().rx_packets, 1u);
  EXPECT_EQ(f.sw.stats().tx_packets, 1u);
}

TEST(Switch, EmptyActionListDrops) {
  SwitchFixture f;
  FlowSpec spec;  // matches everything, no actions
  f.sw.table().add(spec);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 0u);
  EXPECT_EQ(f.h2.received.size(), 0u);
}

TEST(Switch, MissWithoutControllerDrops) {
  SwitchFixture f;
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.sw.stats().table_misses, 1u);
  EXPECT_EQ(f.sw.stats().dropped_no_rule, 1u);
}

TEST(Switch, FloodSkipsIngress) {
  SwitchFixture f;
  FlowSpec spec;
  spec.actions = {OutputAction::flood()};
  f.sw.table().add(spec);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h0.received.size(), 0u);
  EXPECT_EQ(f.h1.received.size(), 1u);
  EXPECT_EQ(f.h2.received.size(), 1u);
}

TEST(Switch, SequentialActionSemantics) {
  // OF 1.0: each output emits the packet in its *current* state.
  SwitchFixture f;
  FlowSpec spec;
  spec.actions = {OutputAction::to(1), SetVlanVidAction{42},
                  OutputAction::to(2)};
  f.sw.table().add(spec);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  ASSERT_EQ(f.h1.received.size(), 1u);
  ASSERT_EQ(f.h2.received.size(), 1u);
  EXPECT_FALSE(net::parse_packet(f.h1.received[0].second)->vlan.has_value());
  ASSERT_TRUE(net::parse_packet(f.h2.received[0].second)->vlan.has_value());
  EXPECT_EQ(net::parse_packet(f.h2.received[0].second)->vlan->vid, 42);
}

TEST(Switch, MultipleOutputsHubRule) {
  SwitchFixture f;
  FlowSpec spec;
  spec.match.with_in_port(0);
  spec.actions = {OutputAction::to(1), OutputAction::to(2)};
  f.sw.table().add(spec);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 1u);
  EXPECT_EQ(f.h2.received.size(), 1u);
  EXPECT_EQ(f.h1.received[0].second, f.h2.received[0].second);
}

TEST(Switch, BlockedIngressDrops) {
  SwitchFixture f;
  FlowSpec spec;
  spec.actions = {OutputAction::to(1)};
  f.sw.table().add(spec);
  f.sw.receive_port_mod(PortMod{.port = 0, .blocked = true});
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 0u);
  EXPECT_EQ(f.sw.stats().dropped_blocked_port, 1u);

  f.sw.receive_port_mod(PortMod{.port = 0, .blocked = false});
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 1u);
}

TEST(Switch, BlockedEgressDrops) {
  SwitchFixture f;
  FlowSpec spec;
  spec.actions = {OutputAction::to(1)};
  f.sw.table().add(spec);
  f.sw.receive_port_mod(PortMod{.port = 1, .blocked = true});
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 0u);
}

TEST(Switch, ProcessingDelayApplied) {
  sim::Simulator sim;
  Network net(sim);
  auto& sw = net.add_node<OpenFlowSwitch>(
      "sw", SwitchProfile{.vendor = "t",
                          .processing_delay = sim::Duration::microseconds(40)});
  auto& a = net.add_node<Probe>("a");
  auto& b = net.add_node<Probe>("b");
  net.connect(sw, a);
  net.connect(sw, b);
  FlowSpec spec;
  spec.actions = {OutputAction::to(1)};
  sw.table().add(spec);

  a.send(0, udp_packet(1, 2));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  // ≥ 40 µs pipeline + two link traversals.
  EXPECT_GE(sim.now().ns(), sim::Duration::microseconds(40).ns());
}

TEST(Switch, IngressTapSeesEverythingIncludingBlocked) {
  SwitchFixture f;
  int taps = 0;
  f.sw.set_ingress_tap([&taps](device::PortIndex, const net::Packet&) { ++taps; });
  f.sw.receive_port_mod(PortMod{.port = 0, .blocked = true});
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(taps, 1);
}

TEST(Switch, InterceptorCanSwallow) {
  struct Swallow : DatapathInterceptor {
    int count = 0;
    bool intercept(device::Datapath&, device::PortIndex, net::Packet&) override {
      ++count;
      return true;
    }
  };
  SwitchFixture f;
  FlowSpec spec;
  spec.actions = {OutputAction::to(1)};
  f.sw.table().add(spec);
  Swallow swallow;
  f.sw.set_interceptor(&swallow);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(swallow.count, 1);
  EXPECT_EQ(f.h1.received.size(), 0u);
}

TEST(Switch, PacketOutTableUsesFlowTable) {
  SwitchFixture f;
  FlowSpec spec;
  spec.match.with_dl_dst(net::MacAddress::from_id(2));
  spec.actions = {OutputAction::to(2)};
  f.sw.table().add(spec);
  f.sw.receive_packet_out(PacketOut{.actions = {OutputAction::table()},
                                    .packet = udp_packet(1, 2),
                                    .in_port = device::kNoPort});
  f.sim.run();
  EXPECT_EQ(f.h2.received.size(), 1u);
}

TEST(Switch, PacketOutTableSkipsInPortRules) {
  // A packet-out with no ingress context must not match in_port rules —
  // the combiner's released packets rely on this.
  SwitchFixture f;
  FlowSpec punt;
  punt.match.with_in_port(1);
  punt.actions = {OutputAction::to(0)};
  punt.priority = 20;
  f.sw.table().add(punt);
  FlowSpec mac_route;
  mac_route.match.with_dl_dst(net::MacAddress::from_id(2));
  mac_route.actions = {OutputAction::to(2)};
  mac_route.priority = 10;
  f.sw.table().add(mac_route);

  f.sw.receive_packet_out(PacketOut{.actions = {OutputAction::table()},
                                    .packet = udp_packet(1, 2),
                                    .in_port = device::kNoPort});
  f.sim.run();
  EXPECT_EQ(f.h0.received.size(), 0u);
  EXPECT_EQ(f.h2.received.size(), 1u);
}

TEST(Switch, PerPortCountersTrack) {
  SwitchFixture f;
  FlowSpec spec;
  spec.actions = {OutputAction::to(1)};
  f.sw.table().add(spec);
  f.h0.send(0, udp_packet(1, 2));
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  ASSERT_GE(f.sw.port_rx().size(), 1u);
  EXPECT_EQ(f.sw.port_rx()[0], 2u);
  ASSERT_GE(f.sw.port_tx().size(), 2u);
  EXPECT_EQ(f.sw.port_tx()[1], 2u);
}

}  // namespace
}  // namespace netco::openflow
