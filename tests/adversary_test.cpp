// Unit tests for the adversarial behaviour library (§II attack classes).
#include <gtest/gtest.h>

#include <vector>

#include "adversary/behaviors.h"
#include "controller/static_routing.h"
#include "device/network.h"
#include "net/headers.h"
#include "openflow/switch.h"

namespace netco::adversary {
namespace {

using device::Network;

class Probe : public device::Node {
 public:
  using Node::Node;
  void handle_packet(device::PortIndex, net::Packet p) override {
    received.push_back(std::move(p));
  }
  std::vector<net::Packet> received;
};

net::Packet udp_packet(std::uint32_t src_id, std::uint32_t dst_id) {
  std::vector<std::byte> payload(64, std::byte{0});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(dst_id),
                          .src = net::MacAddress::from_id(src_id)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(src_id),
                      .dst = net::Ipv4Address::from_id(dst_id)},
      net::UdpHeader{.src_port = 1, .dst_port = 2}, payload);
}

/// sw with three probes: h0 (port 0), h1 (port 1), h2 (port 2); routes
/// id 2 → port 1.
struct Fixture {
  sim::Simulator sim;
  Network net{sim};
  openflow::OpenFlowSwitch& sw;
  Probe& h0;
  Probe& h1;
  Probe& h2;
  Fixture()
      : sw(net.add_node<openflow::OpenFlowSwitch>("sw")),
        h0(net.add_node<Probe>("h0")),
        h1(net.add_node<Probe>("h1")),
        h2(net.add_node<Probe>("h2")) {
    net.connect(sw, h0);
    net.connect(sw, h1);
    net.connect(sw, h2);
    controller::install_mac_route(sw, net::MacAddress::from_id(2), 1);
  }
};

TEST(Adversary, RerouteDivertsMatchingTraffic) {
  Fixture f;
  RerouteBehavior reroute(match_dl_dst(net::MacAddress::from_id(2)), 2);
  f.sw.set_interceptor(&reroute);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 0u);  // legitimate route starved
  EXPECT_EQ(f.h2.received.size(), 1u);  // diverted
  EXPECT_EQ(reroute.attack_stats().packets_attacked, 1u);
}

TEST(Adversary, RerouteLeavesOtherTrafficAlone) {
  Fixture f;
  controller::install_mac_route(f.sw, net::MacAddress::from_id(7), 2);
  RerouteBehavior reroute(match_dl_dst(net::MacAddress::from_id(2)), 2);
  f.sw.set_interceptor(&reroute);
  f.h0.send(0, udp_packet(1, 7));
  f.sim.run();
  EXPECT_EQ(f.h2.received.size(), 1u);  // normal route, not attack
  EXPECT_EQ(reroute.attack_stats().packets_attacked, 0u);
  EXPECT_EQ(reroute.attack_stats().packets_inspected, 1u);
}

TEST(Adversary, MirrorKeepsOriginalFlowing) {
  Fixture f;
  MirrorBehavior mirror(match_dl_dst(net::MacAddress::from_id(2)), 2);
  f.sw.set_interceptor(&mirror);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 1u);  // original delivered
  EXPECT_EQ(f.h2.received.size(), 1u);  // exfiltrated copy
  EXPECT_EQ(f.h1.received[0], f.h2.received[0]);
}

TEST(Adversary, ModifyRetagsVlan) {
  Fixture f;
  ModifyBehavior modify(match_all(), ModifyBehavior::retag_vlan(123));
  f.sw.set_interceptor(&modify);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  ASSERT_EQ(f.h1.received.size(), 1u);
  const auto parsed = net::parse_packet(f.h1.received[0]);
  ASSERT_TRUE(parsed && parsed->vlan);
  EXPECT_EQ(parsed->vlan->vid, 123);
}

TEST(Adversary, ModifyRewritesDlDst) {
  Fixture f;
  controller::install_mac_route(f.sw, net::MacAddress::from_id(9), 2);
  ModifyBehavior modify(match_dl_dst(net::MacAddress::from_id(2)),
                        ModifyBehavior::rewrite_dl_dst(
                            net::MacAddress::from_id(9)));
  f.sw.set_interceptor(&modify);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  // The rewritten packet follows the *new* destination's route.
  EXPECT_EQ(f.h1.received.size(), 0u);
  EXPECT_EQ(f.h2.received.size(), 1u);
}

TEST(Adversary, CorruptPayloadBreaksChecksum) {
  Fixture f;
  ModifyBehavior modify(match_all(), ModifyBehavior::corrupt_payload());
  f.sw.set_interceptor(&modify);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  ASSERT_EQ(f.h1.received.size(), 1u);
  EXPECT_FALSE(net::checksums_valid(f.h1.received[0]));
}

TEST(Adversary, DropSilencesMatchingTraffic) {
  Fixture f;
  DropBehavior drop(match_nw_dst(net::Ipv4Address::from_id(2)));
  f.sw.set_interceptor(&drop);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 0u);
  EXPECT_EQ(drop.attack_stats().packets_attacked, 1u);
}

TEST(Adversary, FromPortRestrictsScope) {
  Fixture f;
  DropBehavior drop(from_port(2, match_all()));
  f.sw.set_interceptor(&drop);
  f.h0.send(0, udp_packet(1, 2));  // arrives on port 0: not dropped
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 1u);
  f.h2.send(0, udp_packet(1, 2));  // arrives on port 2: dropped
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 1u);
}

TEST(Adversary, CompositeFirstSwallowWins) {
  Fixture f;
  std::vector<std::unique_ptr<device::DatapathInterceptor>> chain;
  chain.push_back(std::make_unique<ModifyBehavior>(
      match_all(), ModifyBehavior::retag_vlan(7)));
  chain.push_back(std::make_unique<DropBehavior>(
      match_dl_dst(net::MacAddress::from_id(2))));
  CompositeBehavior composite(std::move(chain));
  f.sw.set_interceptor(&composite);
  f.h0.send(0, udp_packet(1, 2));
  f.sim.run();
  EXPECT_EQ(f.h1.received.size(), 0u);  // modified, then dropped
}

TEST(Adversary, DosFlooderEmitsAtConfiguredRate) {
  Fixture f;
  DosFlooder::Config config;
  config.out_port = 1;
  config.packets_per_sec = 10'000;
  config.packet_bytes = 100;
  config.dst_mac = net::MacAddress::from_id(2);
  config.src_mac = net::MacAddress::from_id(1);
  DosFlooder flooder(f.sw, config);
  flooder.start();
  f.sim.run_until(sim::TimePoint::origin() + sim::Duration::milliseconds(100));
  flooder.stop();
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(flooder.emitted()), 1000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(f.h1.received.size()), 1000.0, 10.0);
}

TEST(Adversary, DosFloodPacketsAreDistinct) {
  // Every flood packet must differ (rolling sequence) — otherwise a naive
  // duplicate filter would absorb the flood for free.
  Fixture f;
  DosFlooder::Config config;
  config.out_port = 1;
  config.packets_per_sec = 1'000;
  config.packet_bytes = 100;
  config.dst_mac = net::MacAddress::from_id(2);
  config.src_mac = net::MacAddress::from_id(1);
  DosFlooder flooder(f.sw, config);
  flooder.start();
  f.sim.run_until(sim::TimePoint::origin() + sim::Duration::milliseconds(10));
  flooder.stop();
  f.sim.run();
  ASSERT_GE(f.h1.received.size(), 2u);
  EXPECT_NE(f.h1.received[0], f.h1.received[1]);
}

}  // namespace
}  // namespace netco::adversary
