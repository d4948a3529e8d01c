// The §VII virtualized NetCo: instead of buying redundant routers, split
// each flow over k vendor-disjoint *paths* with a VLAN tunnel per path and
// recombine at the trusted egress.
//
//   ./build/examples/virtualized_netco
#include <cstdio>

#include "adversary/behaviors.h"
#include "host/ping.h"
#include "topo/virtual_overlay.h"

int main() {
  using namespace netco;

  topo::VirtualOverlayOptions options;
  options.paths = 3;
  options.hops_per_path = 2;
  topo::VirtualOverlayTopology topo(options);

  std::printf("Virtualized NetCo overlay: hA = sA = {3 tunnels} = sB = hB\n");
  std::printf("Paths (existing fabric, zero new routers):\n");
  for (int path = 0; path < options.paths; ++path) {
    std::printf("  tunnel VLAN %d:",
                topo::VirtualOverlayOptions::kBaseVlan + path);
    for (int hop = 0; hop < options.hops_per_path; ++hop) {
      const auto& sw = topo.path_switch(path, hop);
      std::printf(" %s(%s)", sw.name().c_str(), sw.profile().vendor.c_str());
    }
    std::printf("\n");
  }

  // One interior switch on path 1 is malicious: it corrupts payloads.
  adversary::ModifyBehavior corrupt(adversary::match_all(),
                                    adversary::ModifyBehavior::corrupt_payload());
  topo.path_switch(1, 0).set_interceptor(&corrupt);
  std::printf("\np1-0 is malicious (payload corruption on everything).\n");

  host::PingConfig config;
  config.dst_mac = topo.host_b().mac();
  config.dst_ip = topo.host_b().ip();
  config.count = 30;
  config.interval = sim::Duration::milliseconds(5);
  host::IcmpPinger pinger(topo.host_a(), config);
  pinger.start();
  while (!pinger.finished() && topo.simulator().now().sec() < 3.0) {
    topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  const auto report = pinger.report();
  topo.simulator().run_for(sim::Duration::milliseconds(100));

  std::printf("\nping hA -> hB over the tunnels: %d/%d replies, avg %.3f ms\n",
              report.received, report.transmitted, report.avg_ms);
  const auto* stats = topo.compare().stats_for("sB");
  std::printf("egress compare: ingested=%llu released=%llu "
              "corrupted-copies-evicted=%llu\n",
              static_cast<unsigned long long>(stats->ingested),
              static_cast<unsigned long long>(stats->released),
              static_cast<unsigned long long>(stats->evicted_timeout));
  std::printf("\nSame guarantee as the physical combiner, no extra router "
              "hardware:\nthe tunnel tag is the replica identity and the "
              "compare strips it before\nvoting bit-by-bit.\n");
  return 0;
}
