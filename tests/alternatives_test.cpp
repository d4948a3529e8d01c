// Tests for the §IX alternative architectures: sampling-based detection
// and the inband middlebox compare.
#include <gtest/gtest.h>

#include "adversary/behaviors.h"
#include "device/network.h"
#include "host/host.h"
#include "host/ping.h"
#include "netco/combiner.h"
#include "netco/sampling.h"
#include "scenario/scenarios.h"
#include "topo/figure3.h"
#include "topo/inband.h"

namespace netco::core {
namespace {

// --- sampling combiner ---------------------------------------------------

struct SamplingFixture {
  sim::Simulator sim;
  device::Network net{sim};
  host::Host& h1;
  host::Host& h2;
  CombinerInstance inst;

  explicit SamplingFixture(double rate)
      : h1(net.add_node<host::Host>("h1", net::MacAddress::from_id(1),
                                    net::Ipv4Address::from_id(1))),
        h2(net.add_node<host::Host>("h2", net::MacAddress::from_id(2),
                                    net::Ipv4Address::from_id(2))) {
    CombinerOptions options;
    options.mode = EdgeMode::kDetect;
    options.detect_sample_rate = rate;
    inst = build_combiner(
        net, options,
        {PortAttachment{.neighbor = &h1, .link = {}, .local_macs = {h1.mac()}},
         PortAttachment{.neighbor = &h2, .link = {}, .local_macs = {h2.mac()}}},
        "sampling");
    inst.install_replica_route(h1.mac(), 0);
    inst.install_replica_route(h2.mac(), 1);
  }

  host::PingReport ping(int count = 30) {
    host::PingConfig config;
    config.dst_mac = h2.mac();
    config.dst_ip = h2.ip();
    config.count = count;
    config.interval = sim::Duration::milliseconds(2);
    config.timeout = sim::Duration::milliseconds(200);
    host::IcmpPinger pinger(h1, config);
    pinger.start();
    while (!pinger.finished() && sim.now().sec() < 3.0) {
      sim.run_for(sim::Duration::milliseconds(10));
    }
    // Let the compare's sweep finalize sampled entries.
    sim.run_for(sim::Duration::milliseconds(100));
    return pinger.report();
  }

  std::uint64_t mismatches() const {
    std::uint64_t total = 0;
    for (const auto* edge : inst.edges) {
      if (const auto* s = inst.compare->stats_for(edge->name()))
        total += s->mismatch_detected;
    }
    return total;
  }
  std::uint64_t compare_ingested() const {
    std::uint64_t total = 0;
    for (const auto* edge : inst.edges) {
      if (const auto* s = inst.compare->stats_for(edge->name()))
        total += s->ingested;
    }
    return total;
  }
};

TEST(SamplingCombiner, BenignTrafficFlowsWithoutCompareHolding) {
  SamplingFixture f(/*rate=*/1.0);
  const auto report = f.ping(20);
  EXPECT_EQ(report.received, 20);
  EXPECT_EQ(report.duplicates, 0);  // only the primary copy is forwarded
  EXPECT_EQ(f.mismatches(), 0u);
  // Everything sampled at rate 1: 3 copies × (20 requests + 20 replies).
  EXPECT_EQ(f.compare_ingested(), 120u);
}

TEST(SamplingCombiner, SampleRateCutsCompareLoad) {
  SamplingFixture full(1.0);
  full.ping(30);
  SamplingFixture tenth(0.1);
  tenth.ping(30);
  EXPECT_LT(tenth.compare_ingested(), full.compare_ingested() / 3);
}

TEST(SamplingCombiner, ZeroRateMeansNoVerification) {
  SamplingFixture f(0.0);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_EQ(f.compare_ingested(), 0u);
}

TEST(SamplingCombiner, DetectsCorruptingSecondaryWithoutServiceImpact) {
  SamplingFixture f(1.0);
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::corrupt_payload());
  f.inst.replicas[1]->set_interceptor(&modify);  // secondary
  const auto report = f.ping(20);
  EXPECT_EQ(report.received, 20);             // delivery unaffected
  EXPECT_GT(f.mismatches(), 0u);              // but detected
  EXPECT_EQ(f.h2.stats().rx_bad_checksum, 0u);
}

TEST(SamplingCombiner, MaliciousPrimaryIsDetectedButNotPrevented) {
  // The honest limitation of sampling detection: the primary's output is
  // forwarded unverified, so corruption reaches the host — yet the
  // compare still raises the alarm.
  SamplingFixture f(1.0);
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::corrupt_payload());
  f.inst.replicas[0]->set_interceptor(&modify);  // the primary
  const auto report = f.ping(20);
  EXPECT_EQ(report.received, 0);  // corrupted requests fail host checksum
  EXPECT_GT(f.h2.stats().rx_bad_checksum, 0u);
  EXPECT_GT(f.mismatches(), 0u);  // ...but the operator knows
}

TEST(SamplingCombiner, MirrorTowardOriginScreenedOut) {
  // The forwarded primary mirrors h1→h2 traffic back toward h1's edge. The
  // edge's anti-spoof screen must eat those copies, as on a prevention
  // edge, instead of the sampling logic forwarding them to h1.
  SamplingFixture f(1.0);
  adversary::MirrorBehavior mirror(adversary::match_dl_dst(f.h2.mac()),
                                   f.inst.replica_edge_port[0][0]);
  f.inst.replicas[0]->set_interceptor(&mirror);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_GT(mirror.attack_stats().packets_attacked, 0u);
  EXPECT_EQ(f.h1.stats().rx_stray, 0u);
}

TEST(SamplingCombiner, SamplingDecisionConsistentAcrossCopies) {
  SamplingEdgeLogic::Config config;
  config.sample_rate = 0.5;
  SamplingEdgeLogic logic(config);
  for (std::uint32_t n = 0; n < 64; ++n) {
    std::vector<std::byte> payload(64, std::byte{static_cast<unsigned char>(n)});
    const auto packet = net::build_udp(
        net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                            .src = net::MacAddress::from_id(1)},
        std::nullopt,
        net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                        .dst = net::Ipv4Address::from_id(2)},
        net::UdpHeader{.src_port = 1, .dst_port = 2}, payload);
    const auto copy = packet;
    EXPECT_EQ(logic.is_sampled(packet), logic.is_sampled(copy));
  }
}

// --- inband middlebox compare ---------------------------------------------

host::PingReport inband_ping(topo::InbandCombinerTopology& topo,
                             int count = 20) {
  host::PingConfig config;
  config.dst_mac = topo.h2().mac();
  config.dst_ip = topo.h2().ip();
  config.count = count;
  config.interval = sim::Duration::milliseconds(2);
  config.timeout = sim::Duration::milliseconds(200);
  host::IcmpPinger pinger(topo.h1(), config);
  pinger.start();
  while (!pinger.finished() && topo.simulator().now().sec() < 3.0) {
    topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  return pinger.report();
}

TEST(InbandCompare, BenignTrafficBothDirections) {
  topo::InbandCombinerTopology topo;
  const auto report = inband_ping(topo);
  EXPECT_EQ(report.received, 20);
  EXPECT_EQ(report.duplicates, 0);
  EXPECT_EQ(topo.mb_forward().middlebox_stats().released, 20u);
  EXPECT_EQ(topo.mb_reverse().middlebox_stats().released, 20u);
}

TEST(InbandCompare, MasksCorruptingReplica) {
  topo::InbandCombinerTopology topo;
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::corrupt_payload());
  topo.replica(0).set_interceptor(&modify);
  const auto report = inband_ping(topo);
  EXPECT_EQ(report.received, 20);
  EXPECT_EQ(topo.h2().stats().rx_bad_checksum, 0u);
  topo.simulator().run_for(sim::Duration::milliseconds(100));
  EXPECT_GT(topo.mb_forward().core().stats().evicted_timeout, 0u);
}

TEST(InbandCompare, MasksDroppingReplica) {
  topo::InbandCombinerTopology topo;
  adversary::DropBehavior drop(adversary::match_all());
  topo.replica(1).set_interceptor(&drop);
  const auto report = inband_ping(topo);
  EXPECT_EQ(report.received, 20);
}

TEST(InbandCompare, DirectReplicaInjectionDroppedAtEdge) {
  // A malicious replica tries to shortcut past the middlebox by sending
  // straight to the egress edge: the edge's drop rules eat it.
  topo::InbandCombinerTopology topo;
  adversary::RerouteBehavior reroute(
      adversary::match_dl_dst(topo.h2().mac()), /*wrong_port=*/2);  // to eB
  topo.replica(0).set_interceptor(&reroute);
  const auto report = inband_ping(topo);
  EXPECT_EQ(report.received, 20);  // other replicas still carry the quorum
  EXPECT_EQ(topo.h2().stats().rx_stray, 0u);
}

TEST(InbandCompare, LowerRttThanOutOfBand) {
  // The point of the inband architecture: no controller round trip.
  topo::InbandCombinerTopology inband;
  const auto inband_report = inband_ping(inband, 20);

  topo::Figure3Topology outofband(
      scenario::make_options(scenario::ScenarioKind::kCentral3, 1));
  host::PingConfig config;
  config.dst_mac = outofband.h2().mac();
  config.dst_ip = outofband.h2().ip();
  config.count = 20;
  config.interval = sim::Duration::milliseconds(2);
  host::IcmpPinger pinger(outofband.h1(), config);
  pinger.start();
  while (!pinger.finished() && outofband.simulator().now().sec() < 3.0) {
    outofband.simulator().run_for(sim::Duration::milliseconds(10));
  }
  const auto oob_report = pinger.report();

  EXPECT_EQ(inband_report.received, 20);
  EXPECT_EQ(oob_report.received, 20);
  EXPECT_LT(inband_report.avg_ms, oob_report.avg_ms);
}

}  // namespace
}  // namespace netco::core
