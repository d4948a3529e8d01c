// The paper-conclusion extension: NetCo around *legacy* (non-OpenFlow)
// IPv4 routers. The k replicas are configuration clones of one logical
// router — same interface MACs/IPs, same FIB — so their L2 rewrites and
// TTL decrements stay bit-identical and the memcmp compare accepts them.
//
//   ./build/examples/legacy_routers
#include <cstdio>

#include "adversary/behaviors.h"
#include "device/network.h"
#include "host/host.h"
#include "host/ping.h"
#include "netco/combiner.h"

int main() {
  using namespace netco;

  sim::Simulator sim(7);
  device::Network net(sim);
  auto& h1 = net.add_node<host::Host>(
      "h1", net::MacAddress::from_id(1),
      net::Ipv4Address::from_octets(10, 0, 1, 1));
  auto& h2 = net.add_node<host::Host>(
      "h2", net::MacAddress::from_id(2),
      net::Ipv4Address::from_octets(10, 0, 2, 1));

  // One logical router position between two /24 subnets, realized as a
  // k=3 combiner of cloned legacy routers.
  core::CombinerOptions options;
  options.k = 3;
  auto combiner = core::build_combiner(
      net, options,
      {core::PortAttachment{
           .neighbor = &h1,
           .link = {},
           .local_macs = {h1.mac()},
           .router_interface = iproute::Interface{
               .mac = net::MacAddress::from_id(100),
               .ip = net::Ipv4Address::from_octets(10, 0, 1, 254)}},
       core::PortAttachment{
           .neighbor = &h2,
           .link = {},
           .local_macs = {h2.mac()},
           .router_interface = iproute::Interface{
               .mac = net::MacAddress::from_id(101),
               .ip = net::Ipv4Address::from_octets(10, 0, 2, 254)}}},
      "legacy");
  combiner.add_route(net::Ipv4Address::from_octets(10, 0, 1, 0), 24, 0,
                     h1.mac());
  combiner.add_route(net::Ipv4Address::from_octets(10, 0, 2, 0), 24, 1,
                     h2.mac());

  std::printf("Legacy combiner: %zu cloned IPv4 routers, %zu routes each\n",
              combiner.routers.size(), combiner.routers[0]->fib().size());

  // Replica 0 is compromised: it corrupts every payload it routes.
  adversary::ModifyBehavior corrupt(adversary::match_all(),
                                    adversary::ModifyBehavior::corrupt_payload());
  combiner.routers[0]->set_interceptor(&corrupt);
  std::printf("Compromised %s with payload corruption.\n\n",
              combiner.routers[0]->name().c_str());

  // Cross-subnet ping: L2 next hop is the logical router's interface MAC.
  host::PingConfig config;
  config.dst_mac = net::MacAddress::from_id(100);
  config.dst_ip = h2.ip();
  config.count = 20;
  config.interval = sim::Duration::milliseconds(5);
  host::IcmpPinger pinger(h1, config);
  pinger.start();
  while (!pinger.finished() && sim.now().sec() < 3.0) {
    sim.run_for(sim::Duration::milliseconds(10));
  }
  const auto report = pinger.report();
  std::printf("ping 10.0.1.1 -> 10.0.2.1 across the routed combiner:\n");
  std::printf("  %d/%d replies, avg rtt %.3f ms\n", report.received,
              report.transmitted, report.avg_ms);
  std::printf("  attacker touched %llu packets; corrupted frames at h2: %llu\n",
              static_cast<unsigned long long>(
                  corrupt.attack_stats().packets_attacked),
              static_cast<unsigned long long>(
                  h2.stats().rx_bad_checksum));
  std::printf(
      "\nThe TTL decrement and MAC rewrites happened identically on every\n"
      "clone, so honest copies still compare bit-for-bit — the combiner\n"
      "works for classic routers exactly as for OpenFlow switches.\n");
  return report.received == config.count && h2.stats().rx_bad_checksum == 0
             ? 0
             : 1;
}
