// Tests for the IP routing substrate (LPM, LegacyRouter) and the legacy
// combiner — the paper-conclusion extension of NetCo to non-OpenFlow
// routers.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/behaviors.h"
#include "device/network.h"
#include "host/host.h"
#include "host/ping.h"
#include "iproute/legacy_router.h"
#include "iproute/lpm.h"
#include "netco/combiner.h"

namespace netco::iproute {
namespace {

using device::Network;

// --- LPM ---------------------------------------------------------------------

TEST(Lpm, LongestPrefixWins) {
  LpmTable<int> table;
  table.insert(net::Ipv4Address::from_octets(10, 0, 0, 0), 8, 1);
  table.insert(net::Ipv4Address::from_octets(10, 1, 0, 0), 16, 2);
  table.insert(net::Ipv4Address::from_octets(10, 1, 2, 0), 24, 3);

  EXPECT_EQ(table.lookup(net::Ipv4Address::from_octets(10, 9, 9, 9)), 1);
  EXPECT_EQ(table.lookup(net::Ipv4Address::from_octets(10, 1, 9, 9)), 2);
  EXPECT_EQ(table.lookup(net::Ipv4Address::from_octets(10, 1, 2, 9)), 3);
  EXPECT_FALSE(
      table.lookup(net::Ipv4Address::from_octets(11, 0, 0, 1)).has_value());
}

TEST(Lpm, DefaultRouteCatchesAll) {
  LpmTable<int> table;
  table.insert(net::Ipv4Address{}, 0, 42);
  EXPECT_EQ(table.lookup(net::Ipv4Address::from_octets(203, 0, 113, 5)), 42);
}

TEST(Lpm, HostRouteExact) {
  LpmTable<int> table;
  table.insert(net::Ipv4Address::from_octets(10, 0, 0, 7), 32, 7);
  EXPECT_EQ(table.lookup(net::Ipv4Address::from_octets(10, 0, 0, 7)), 7);
  EXPECT_FALSE(
      table.lookup(net::Ipv4Address::from_octets(10, 0, 0, 8)).has_value());
}

TEST(Lpm, InsertReplacesAndRemoveWorks) {
  LpmTable<int> table;
  table.insert(net::Ipv4Address::from_octets(10, 0, 0, 0), 8, 1);
  table.insert(net::Ipv4Address::from_octets(10, 0, 0, 0), 8, 9);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(net::Ipv4Address::from_octets(10, 1, 1, 1)), 9);
  EXPECT_TRUE(table.remove(net::Ipv4Address::from_octets(10, 0, 0, 0), 8));
  EXPECT_FALSE(table.remove(net::Ipv4Address::from_octets(10, 0, 0, 0), 8));
  EXPECT_FALSE(
      table.lookup(net::Ipv4Address::from_octets(10, 1, 1, 1)).has_value());
}

TEST(Lpm, MaskComputation) {
  EXPECT_EQ(LpmTable<int>::mask_of(0), 0u);
  EXPECT_EQ(LpmTable<int>::mask_of(8), 0xFF000000u);
  EXPECT_EQ(LpmTable<int>::mask_of(24), 0xFFFFFF00u);
  EXPECT_EQ(LpmTable<int>::mask_of(32), 0xFFFFFFFFu);
}

// --- LegacyRouter -------------------------------------------------------------

/// h1 — router — h2 with /24 routes on both interfaces.
struct RouterFixture {
  sim::Simulator sim;
  Network net{sim};
  host::Host& h1;
  host::Host& h2;
  LegacyRouter& router;

  RouterFixture()
      : h1(net.add_node<host::Host>(
            "h1", net::MacAddress::from_id(1),
            net::Ipv4Address::from_octets(10, 0, 1, 1))),
        h2(net.add_node<host::Host>(
            "h2", net::MacAddress::from_id(2),
            net::Ipv4Address::from_octets(10, 0, 2, 1))),
        router(net.add_node<LegacyRouter>("rt")) {
    router.add_interface(
        Interface{.mac = net::MacAddress::from_id(100),
                  .ip = net::Ipv4Address::from_octets(10, 0, 1, 254)});
    router.add_interface(
        Interface{.mac = net::MacAddress::from_id(101),
                  .ip = net::Ipv4Address::from_octets(10, 0, 2, 254)});
    net.connect(router, h1);
    net.connect(router, h2);
    router.add_route(net::Ipv4Address::from_octets(10, 0, 1, 0), 24,
                     NextHop{.port = 0, .next_mac = h1.mac()});
    router.add_route(net::Ipv4Address::from_octets(10, 0, 2, 0), 24,
                     NextHop{.port = 1, .next_mac = h2.mac()});
  }

  /// A UDP datagram from h1 addressed (L3) to h2, L2 to the router.
  net::Packet h1_to_h2(std::uint8_t ttl = 64) {
    std::vector<std::byte> payload(32, std::byte{0x5A});
    return net::build_udp(
        net::EthernetHeader{.dst = router.interfaces()[0].mac,
                            .src = h1.mac()},
        std::nullopt,
        net::Ipv4Header{.src = h1.ip(), .dst = h2.ip(), .ttl = ttl},
        net::UdpHeader{.src_port = 9, .dst_port = 5001}, payload);
  }
};

TEST(LegacyRouter, ForwardsWithL2RewriteAndTtlDecrement) {
  RouterFixture f;
  net::Packet seen;
  f.h2.set_rx_tap([&](const net::Packet& p) { seen = p; });
  f.h1.transmit(f.h1_to_h2(64));
  f.sim.run();
  EXPECT_EQ(f.router.router_stats().forwarded, 1u);
  const auto parsed = net::parse_packet(seen);
  ASSERT_TRUE(parsed && parsed->ipv4);
  EXPECT_EQ(parsed->eth.src, f.router.interfaces()[1].mac);
  EXPECT_EQ(parsed->eth.dst, f.h2.mac());
  EXPECT_EQ(parsed->ipv4->ttl, 63);
  EXPECT_TRUE(net::checksums_valid(seen));  // incremental fix is correct
}

TEST(LegacyRouter, TtlExpiryDropsAndSignals) {
  RouterFixture f;
  int time_exceeded = 0;
  f.h1.set_rx_tap([&](const net::Packet& p) {
    const auto parsed = net::parse_packet(p);
    if (parsed && parsed->icmp && parsed->icmp->type == 11) ++time_exceeded;
  });
  f.h1.transmit(f.h1_to_h2(1));
  f.sim.run();
  EXPECT_EQ(f.router.router_stats().ttl_expired, 1u);
  EXPECT_EQ(time_exceeded, 1);
  EXPECT_EQ(f.h2.stats().rx_packets, 0u);
}

TEST(LegacyRouter, NoRouteCounted) {
  RouterFixture f;
  std::vector<std::byte> payload(16, std::byte{0});
  f.h1.transmit(net::build_udp(
      net::EthernetHeader{.dst = f.router.interfaces()[0].mac,
                          .src = f.h1.mac()},
      std::nullopt,
      net::Ipv4Header{.src = f.h1.ip(),
                      .dst = net::Ipv4Address::from_octets(192, 168, 1, 1)},
      net::UdpHeader{.src_port = 1, .dst_port = 2}, payload));
  f.sim.run();
  EXPECT_EQ(f.router.router_stats().no_route, 1u);
  EXPECT_EQ(f.h2.stats().rx_packets, 0u);
}

TEST(LegacyRouter, AnswersEchoToOwnInterface) {
  RouterFixture f;
  int replies = 0;
  f.h1.set_icmp_reply_handler(
      [&](const net::ParsedPacket&, const net::Packet&) { ++replies; });
  std::vector<std::byte> payload(16, std::byte{0});
  f.h1.transmit(net::build_icmp_echo(
      net::EthernetHeader{.dst = f.router.interfaces()[0].mac,
                          .src = f.h1.mac()},
      std::nullopt,
      net::Ipv4Header{.src = f.h1.ip(),
                      .dst = f.router.interfaces()[0].ip},
      net::IcmpEchoHeader{.type = net::kIcmpEchoRequest, .id = 1, .seq = 0},
      payload));
  f.sim.run();
  EXPECT_EQ(f.router.router_stats().for_self, 1u);
  EXPECT_EQ(replies, 1);
}

TEST(LegacyRouter, NonIpDropped) {
  RouterFixture f;
  f.h1.transmit(net::build_ethernet(
      net::EthernetHeader{.dst = f.router.interfaces()[0].mac,
                          .src = f.h1.mac(),
                          .ethertype = 0x8899},
      std::nullopt, {}));
  f.sim.run();
  EXPECT_EQ(f.router.router_stats().non_ip_dropped, 1u);
}

TEST(LegacyRouter, DefaultRouteCatchesOffTableDestinations) {
  // A 0.0.0.0/0 gateway route turns "no route" into a forward: the
  // fallback a RIP-injected default would install.
  RouterFixture f;
  f.router.add_route(net::Ipv4Address{}, 0,
                     NextHop{.port = 1, .next_mac = f.h2.mac()});
  net::Packet seen;
  f.h2.set_rx_tap([&](const net::Packet& p) { seen = p; });
  std::vector<std::byte> payload(16, std::byte{0});
  f.h1.transmit(net::build_udp(
      net::EthernetHeader{.dst = f.router.interfaces()[0].mac,
                          .src = f.h1.mac()},
      std::nullopt,
      net::Ipv4Header{.src = f.h1.ip(),
                      .dst = net::Ipv4Address::from_octets(192, 168, 1, 1)},
      net::UdpHeader{.src_port = 1, .dst_port = 2}, payload));
  f.sim.run();
  EXPECT_EQ(f.router.router_stats().no_route, 0u);
  EXPECT_EQ(f.router.router_stats().forwarded, 1u);
  const auto parsed = net::parse_packet(seen);
  ASSERT_TRUE(parsed && parsed->ipv4);
  EXPECT_EQ(parsed->ipv4->dst, net::Ipv4Address::from_octets(192, 168, 1, 1));
}

TEST(LegacyRouter, HostRouteBeatsCoveringPrefixUntilRemoved) {
  // A /32 for one address inside h2's /24 steers just that flow out the
  // h1-side port; withdrawing it (remove_route, what the RIP speaker does
  // on invalidation) restores the covering /24.
  RouterFixture f;
  f.router.add_route(f.h2.ip(), 32, NextHop{.port = 0, .next_mac = f.h1.mac()});
  int at_h1 = 0;
  f.h1.set_rx_tap([&](const net::Packet&) { ++at_h1; });
  f.h1.transmit(f.h1_to_h2());
  f.sim.run();
  EXPECT_EQ(at_h1, 1);
  EXPECT_EQ(f.h2.stats().rx_packets, 0u);

  EXPECT_TRUE(f.router.remove_route(f.h2.ip(), 32));
  EXPECT_FALSE(f.router.remove_route(f.h2.ip(), 32));  // already gone
  f.h1.transmit(f.h1_to_h2());
  f.sim.run();
  EXPECT_EQ(at_h1, 1);  // no longer hairpinned
  EXPECT_EQ(f.h2.stats().rx_packets, 1u);
}

TEST(LegacyRouter, TtlExpiryIcmpIsWellFormed) {
  // Companion to TtlExpiryDropsAndSignals: the time-exceeded message must
  // be a valid ICMP packet from the receiving interface back to the
  // sender, not just "something" on the wire.
  RouterFixture f;
  net::Packet seen;
  f.h1.set_rx_tap([&](const net::Packet& p) { seen = p; });
  f.h1.transmit(f.h1_to_h2(1));
  f.sim.run();
  const auto parsed = net::parse_packet(seen);
  ASSERT_TRUE(parsed && parsed->ipv4 && parsed->icmp);
  EXPECT_EQ(parsed->icmp->type, 11);
  EXPECT_EQ(parsed->ipv4->src, f.router.interfaces()[0].ip);
  EXPECT_EQ(parsed->ipv4->dst, f.h1.ip());
  EXPECT_EQ(parsed->eth.src, f.router.interfaces()[0].mac);
  EXPECT_EQ(parsed->eth.dst, f.h1.mac());
  EXPECT_TRUE(net::checksums_valid(seen));
}

TEST(LegacyRouter, InterceptorHookWorks) {
  RouterFixture f;
  adversary::DropBehavior drop(adversary::match_all());
  f.router.set_interceptor(&drop);
  f.h1.transmit(f.h1_to_h2());
  f.sim.run();
  EXPECT_EQ(f.h2.stats().rx_packets, 0u);
  EXPECT_EQ(drop.attack_stats().packets_attacked, 1u);
}

// --- Legacy combiner -----------------------------------------------------------

/// h1 — [combiner of k legacy routers] — h2.
struct LegacyCombinerFixture {
  sim::Simulator sim;
  Network net{sim};
  host::Host& h1;
  host::Host& h2;
  core::CombinerInstance combiner;

  explicit LegacyCombinerFixture(int k = 3)
      : h1(net.add_node<host::Host>(
            "h1", net::MacAddress::from_id(1),
            net::Ipv4Address::from_octets(10, 0, 1, 1))),
        h2(net.add_node<host::Host>(
            "h2", net::MacAddress::from_id(2),
            net::Ipv4Address::from_octets(10, 0, 2, 1))) {
    core::CombinerOptions options;
    options.k = k;
    combiner = core::build_combiner(
        net, options,
        {core::PortAttachment{
             .neighbor = &h1,
             .link = {},
             .local_macs = {h1.mac()},
             .router_interface = Interface{
                 .mac = net::MacAddress::from_id(100),
                 .ip = net::Ipv4Address::from_octets(10, 0, 1, 254)}},
         core::PortAttachment{
             .neighbor = &h2,
             .link = {},
             .local_macs = {h2.mac()},
             .router_interface = Interface{
                 .mac = net::MacAddress::from_id(101),
                 .ip = net::Ipv4Address::from_octets(10, 0, 2, 254)}}},
        "legacy");
    combiner.add_route(net::Ipv4Address::from_octets(10, 0, 1, 0), 24, 0,
                       h1.mac());
    combiner.add_route(net::Ipv4Address::from_octets(10, 0, 2, 0), 24, 1,
                       h2.mac());
  }

  host::PingReport ping(int count = 10) {
    host::PingConfig config;
    // L2 next hop is the logical router's interface MAC.
    config.dst_mac = net::MacAddress::from_id(100);
    config.dst_ip = h2.ip();
    config.count = count;
    config.interval = sim::Duration::milliseconds(2);
    config.timeout = sim::Duration::milliseconds(200);
    host::IcmpPinger pinger(h1, config);
    pinger.start();
    while (!pinger.finished() && sim.now().sec() < 3.0) {
      sim.run_for(sim::Duration::milliseconds(10));
    }
    return pinger.report();
  }
};

TEST(LegacyCombiner, ReplicasAreConfigurationClones) {
  LegacyCombinerFixture f;
  ASSERT_EQ(f.combiner.routers.size(), 3u);
  for (const auto* replica : f.combiner.routers) {
    EXPECT_EQ(replica->interfaces()[0].mac, net::MacAddress::from_id(100));
    EXPECT_EQ(replica->interfaces()[1].mac, net::MacAddress::from_id(101));
    EXPECT_EQ(replica->fib().size(), 2u);
  }
}

TEST(LegacyCombiner, RoutedPingFlowsThrough) {
  // The replicas rewrite L2 and decrement TTL identically, so the memcmp
  // compare accepts the copies — the clone requirement in action.
  LegacyCombinerFixture f;
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_EQ(report.duplicates, 0);
}

TEST(LegacyCombiner, DropperReplicaMasked) {
  LegacyCombinerFixture f;
  adversary::DropBehavior drop(adversary::match_all());
  f.combiner.routers[0]->set_interceptor(&drop);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
}

TEST(LegacyCombiner, CorruptingReplicaMasked) {
  LegacyCombinerFixture f;
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::corrupt_payload());
  f.combiner.routers[0]->set_interceptor(&modify);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_EQ(f.h2.stats().rx_bad_checksum, 0u);
}

TEST(LegacyCombiner, TwoDroppersDefeatK3) {
  LegacyCombinerFixture f;
  adversary::DropBehavior drop0(adversary::match_all());
  adversary::DropBehavior drop1(adversary::match_all());
  f.combiner.routers[0]->set_interceptor(&drop0);
  f.combiner.routers[1]->set_interceptor(&drop1);
  const auto report = f.ping(5);
  EXPECT_EQ(report.received, 0);
}

TEST(LegacyCombiner, K5ToleratesTwoAttackers) {
  LegacyCombinerFixture f(5);
  adversary::DropBehavior drop(adversary::match_all());
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::corrupt_payload());
  f.combiner.routers[0]->set_interceptor(&drop);
  f.combiner.routers[1]->set_interceptor(&modify);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
}

}  // namespace
}  // namespace netco::iproute
