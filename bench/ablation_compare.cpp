// Ablation benches for the design choices DESIGN.md calls out:
//  A1  compare mode (bit-by-bit / header-only / hashed) vs end-to-end RTT
//      and attack filtering;
//  A2  hold-timeout sweep: minority residue vs memory pressure;
//  A3  cache capacity vs small-packet jitter (the §V-B mechanism);
//  A4  DoS block advice on/off: availability under a flooding replica;
//  A5  detection-only mode (k=2, first-copy release) vs prevention.
#include <cstdio>

#include "adversary/behaviors.h"
#include "bench_common.h"
#include "host/ping.h"
#include "host/udp_app.h"
#include "netco/combiner.h"
#include "netco/compare_core.h"
#include "topo/figure3.h"
#include "topo/inband.h"

namespace {

using namespace netco;
using namespace netco::scenario;

topo::Figure3Options central3(std::uint64_t seed) {
  return make_options(ScenarioKind::kCentral3, seed);
}

host::PingReport run_ping(topo::Figure3Topology& topo, int count = 30,
                          sim::Duration interval = sim::Duration::milliseconds(3)) {
  host::PingConfig config;
  config.dst_mac = topo.h2().mac();
  config.dst_ip = topo.h2().ip();
  config.count = count;
  config.interval = interval;
  config.timeout = sim::Duration::milliseconds(300);
  host::IcmpPinger pinger(topo.h1(), config);
  pinger.start();
  while (!pinger.finished() && topo.simulator().now().sec() < 5.0) {
    topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  return pinger.report();
}

void ablation_modes() {
  std::printf("\n--- A1: compare mode vs RTT + filtering ---\n");
  stats::TablePrinter table({"mode", "RTT ms", "replies/30",
                             "corruption filtered"});
  struct Row {
    const char* name;
    core::CompareMode mode;
  };
  const Row rows[] = {
      {"bit-by-bit (memcmp)", core::CompareMode::kFullPacket},
      {"header-only", core::CompareMode::kHeaderOnly},
      {"hashed", core::CompareMode::kHashed},
  };
  for (const auto& row : rows) {
    auto options = central3(1);
    options.combiner.compare.mode = row.mode;
    topo::Figure3Topology topo(options);
    adversary::ModifyBehavior modify(
        adversary::match_all(), adversary::ModifyBehavior::corrupt_payload());
    topo.combiner().replicas[0]->set_interceptor(&modify);
    const auto report = run_ping(topo);
    // Filtering check: no corrupted packet must reach a host.
    const bool filtered = topo.h1().stats().rx_bad_checksum == 0 &&
                          topo.h2().stats().rx_bad_checksum == 0;
    table.add_row({row.name, stats::TablePrinter::num(report.avg_ms, 3),
                   std::to_string(report.received),
                   filtered ? "yes" : "NO (see DESIGN.md caveat)"});
  }
  table.print();
  std::printf(
      "Note: header-only/hashed trade integrity for compare CPU; a payload\n"
      "corruption that keeps headers intact slips past header-only compare\n"
      "only if it also wins the exemplar race (first copy).\n");
}

void ablation_hold_timeout() {
  std::printf("\n--- A2: hold-timeout sweep (minority residue lifetime) ---\n");
  stats::TablePrinter table({"hold_timeout ms", "replies/30", "evicted",
                             "max cache entries"});
  for (int ms : {2, 5, 20, 100, 500}) {
    auto options = central3(1);
    options.combiner.compare.hold_timeout = sim::Duration::milliseconds(ms);
    topo::Figure3Topology topo(options);
    // One dropper replica: every packet waits for its (absent) third copy.
    adversary::DropBehavior drop(adversary::match_all());
    topo.combiner().replicas[0]->set_interceptor(&drop);
    const auto report = run_ping(topo);
    topo.simulator().run_for(sim::Duration::seconds(1));
    std::uint64_t evicted = 0, max_entries = 0;
    for (const auto* edge : topo.combiner().edges) {
      if (const auto* s = topo.combiner().compare->stats_for(edge->name())) {
        evicted += s->evicted_timeout;
        max_entries = std::max<std::uint64_t>(max_entries,
                                              s->max_cache_entries);
      }
    }
    table.add_row({std::to_string(ms), std::to_string(report.received),
                   std::to_string(evicted), std::to_string(max_entries)});
  }
  table.print();
  std::printf(
      "Longer holds keep released-but-incomplete entries resident (memory)\n"
      "without helping correctness; too-short holds would evict honest\n"
      "packets on slow replicas. Availability is flat across the sweep.\n");
}

void ablation_cache_capacity() {
  std::printf("\n--- A3: cache capacity vs small-packet jitter (§V-B) ---\n");
  stats::TablePrinter table(
      {"cache capacity", "jitter ms (64B)", "cleanup passes"});
  for (std::size_t capacity : {128u, 512u, 2048u, 8192u}) {
    auto options = central3(1);
    options.combiner.compare.cache_capacity = capacity;
    // Keep entries resident long enough that capacity, not the timeout,
    // is the binding constraint — the cleanup-pass regime of §V-B.
    options.combiner.compare.hold_timeout = sim::Duration::milliseconds(200);
    topo::Figure3Topology topo(options);
    host::UdpSenderConfig config;
    config.dst_mac = topo.h2().mac();
    config.dst_ip = topo.h2().ip();
    config.rate = DataRate::megabits_per_sec(30);
    config.payload_bytes = 64;
    host::UdpSender sender(topo.h1(), config);
    host::UdpSink sink(topo.h2(), config.dst_port);
    sender.start();
    topo.simulator().run_for(sim::Duration::milliseconds(100));
    sink.reset();
    topo.simulator().run_for(sim::Duration::milliseconds(400));
    sender.stop();
    std::uint64_t passes = 0;
    for (const auto* edge : topo.combiner().edges) {
      if (const auto* s = topo.combiner().compare->stats_for(edge->name()))
        passes += s->cleanup_passes;
    }
    table.add_row({std::to_string(capacity),
                   stats::TablePrinter::num(sink.report().jitter_ms, 4),
                   std::to_string(passes)});
  }
  table.print();
  std::printf(
      "Small caches clean up constantly; each pass stalls the compare CPU\n"
      "and the stall shows up as jitter — the paper's Fig. 8 explanation.\n");
}

void ablation_dos_blocking() {
  std::printf("\n--- A4: DoS block advice on/off ---\n");
  stats::TablePrinter table({"block advice", "replies/10", "flood emitted",
                             "alarms"});
  for (bool enable : {false, true}) {
    auto options = central3(1);
    if (!enable) {
      // Disable both monitors: the flood is never blocked.
      options.combiner.compare.rate_limit_packets = 1ULL << 40;
      options.combiner.compare.garbage_limit_packets = 1ULL << 40;
    }
    topo::Figure3Topology topo(options);
    adversary::DosFlooder::Config flood_config;
    flood_config.out_port = topo.combiner().replica_edge_port[0][1];
    flood_config.packets_per_sec = 200'000;
    flood_config.packet_bytes = 200;
    flood_config.dst_mac = topo.h2().mac();
    flood_config.src_mac = topo.h1().mac();
    adversary::DosFlooder flooder(*topo.combiner().replicas[0], flood_config);
    flooder.start();
    const auto report =
        run_ping(topo, 10, sim::Duration::milliseconds(50));
    flooder.stop();
    table.add_row({enable ? "on" : "off", std::to_string(report.received),
                   std::to_string(flooder.emitted()),
                   std::to_string(topo.combiner().compare->alarms().size())});
  }
  table.print();
  std::printf(
      "Without the §IV case-2 advice the flood keeps the compare CPU\n"
      "saturated and victim traffic starves; with it, the port is cut and\n"
      "service recovers.\n");
}

void ablation_detection_mode() {
  std::printf("\n--- A5: detection (k=2, first-copy) vs prevention (k=3) ---\n");
  stats::TablePrinter table({"design", "replies/30", "RTT ms",
                             "corrupted reached host", "mismatch alarms"});
  for (bool detect : {true, false}) {
    auto options = central3(1);
    if (detect) {
      options.combiner.k = 2;
      options.combiner.compare.policy = core::ReleasePolicy::kFirstCopy;
    }
    topo::Figure3Topology topo(options);
    adversary::ModifyBehavior modify(
        adversary::match_all(), adversary::ModifyBehavior::corrupt_payload());
    topo.combiner().replicas[0]->set_interceptor(&modify);
    const auto report = run_ping(topo);
    topo.simulator().run_for(sim::Duration::milliseconds(200));
    std::uint64_t mismatches = 0;
    for (const auto* edge : topo.combiner().edges) {
      if (const auto* s = topo.combiner().compare->stats_for(edge->name()))
        mismatches += s->mismatch_detected;
    }
    const auto corrupted = topo.h1().stats().rx_bad_checksum +
                           topo.h2().stats().rx_bad_checksum;
    table.add_row({detect ? "detect (k=2)" : "prevent (k=3)",
                   std::to_string(report.received),
                   stats::TablePrinter::num(report.avg_ms, 3),
                   std::to_string(corrupted), std::to_string(mismatches)});
  }
  table.print();
  std::printf(
      "Exactly the paper's §III claim: two replicas suffice to *detect*\n"
      "misbehaviour (mismatch alarms fire, but tampered packets reach the\n"
      "host); three are needed to *prevent* it.\n");
}

void ablation_sampling() {
  std::printf("\n--- A6: sampling rate vs compare load & detection (§IX) ---\n");
  stats::TablePrinter table({"sample rate", "replies/30", "compare msgs",
                             "mismatch alarms"});
  for (double rate : {0.0, 0.01, 0.1, 0.5, 1.0}) {
    sim::Simulator sim;
    device::Network net(sim);
    auto& h1 = net.add_node<host::Host>("h1", net::MacAddress::from_id(1),
                                        net::Ipv4Address::from_id(1));
    auto& h2 = net.add_node<host::Host>("h2", net::MacAddress::from_id(2),
                                        net::Ipv4Address::from_id(2));
    core::CombinerOptions options;
    options.mode = core::EdgeMode::kDetect;
    options.detect_sample_rate = rate;
    auto inst = core::build_combiner(
        net, options,
        {core::PortAttachment{.neighbor = &h1, .link = {}, .local_macs = {h1.mac()}},
         core::PortAttachment{.neighbor = &h2, .link = {}, .local_macs = {h2.mac()}}},
        "sampling");
    inst.install_replica_route(h1.mac(), 0);
    inst.install_replica_route(h2.mac(), 1);
    adversary::ModifyBehavior modify(
        adversary::match_all(), adversary::ModifyBehavior::corrupt_payload());
    inst.replicas[1]->set_interceptor(&modify);  // corrupting secondary

    host::PingConfig config;
    config.dst_mac = h2.mac();
    config.dst_ip = h2.ip();
    config.count = 30;
    config.interval = sim::Duration::milliseconds(3);
    host::IcmpPinger pinger(h1, config);
    pinger.start();
    while (!pinger.finished() && sim.now().sec() < 3.0)
      sim.run_for(sim::Duration::milliseconds(10));
    sim.run_for(sim::Duration::milliseconds(200));
    const auto report = pinger.report();

    std::uint64_t mismatches = 0;
    for (const auto* edge : inst.edges) {
      if (const auto* s = inst.compare->stats_for(edge->name()))
        mismatches += s->mismatch_detected;
    }
    table.add_row({stats::TablePrinter::num(rate, 2),
                   std::to_string(report.received),
                   std::to_string(inst.compare_controller->stats()
                                      .packet_ins_received),
                   std::to_string(mismatches)});
  }
  table.print();
  std::printf(
      "Sampling trades compare CPU for detection coverage: availability is\n"
      "unaffected (the primary path never waits), and even low rates catch\n"
      "a persistent corrupter quickly.\n");
}

void ablation_inband() {
  std::printf("\n--- A7: compare placement — out-of-band vs inband (§IX) ---\n");
  stats::TablePrinter table({"architecture", "RTT ms", "replies/30"});
  {
    topo::Figure3Topology topo(central3(1));
    const auto report = run_ping(topo);
    table.add_row({"out-of-band (controller, Central3)",
                   stats::TablePrinter::num(report.avg_ms, 3),
                   std::to_string(report.received)});
  }
  {
    topo::InbandCombinerTopology topo;
    host::PingConfig config;
    config.dst_mac = topo.h2().mac();
    config.dst_ip = topo.h2().ip();
    config.count = 30;
    config.interval = sim::Duration::milliseconds(3);
    host::IcmpPinger pinger(topo.h1(), config);
    pinger.start();
    while (!pinger.finished() && topo.simulator().now().sec() < 3.0)
      topo.simulator().run_for(sim::Duration::milliseconds(10));
    const auto report = pinger.report();
    table.add_row({"inband (middlebox per direction)",
                   stats::TablePrinter::num(report.avg_ms, 3),
                   std::to_string(report.received)});
  }
  table.print();
  std::printf(
      "The middlebox saves the controller round trip per direction; both\n"
      "placements provide the same prevention guarantee.\n");
}

}  // namespace

int main() {
  bench::print_header("Ablations",
                      "Design-choice sweeps for the compare element.");
  bench::ObsSession obs_session;
  ablation_modes();
  ablation_hold_timeout();
  ablation_cache_capacity();
  ablation_dos_blocking();
  ablation_detection_mode();
  ablation_sampling();
  ablation_inband();
  obs_session.dump_metrics("ablations");
  return 0;
}
