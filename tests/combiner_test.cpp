// Integration tests for the assembled combiner (hub + replicas + compare
// service): the structure of every shape the builder makes, then, on the
// Fig. 3 topology, every §II attack class mounted on a replica with the
// end-to-end guarantees asserted.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/behaviors.h"
#include "device/network.h"
#include "host/host.h"
#include "host/ping.h"
#include "host/udp_app.h"
#include "netco/combiner.h"
#include "netco/fastpath.h"
#include "netco/sampling.h"
#include "scenario/scenarios.h"
#include "topo/figure3.h"

namespace netco::core {
namespace {

/// A Fig. 3 Central3 topology with helpers to attack a replica.
struct CombinerFixture {
  topo::Figure3Topology topo;

  explicit CombinerFixture(int k = 3, std::uint64_t seed = 1)
      : topo(make_opts(k, seed)) {}

  static topo::Figure3Options make_opts(int k, std::uint64_t seed) {
    auto opts = scenario::make_options(k == 5
                                           ? scenario::ScenarioKind::kCentral5
                                           : scenario::ScenarioKind::kCentral3,
                                       seed);
    return opts;
  }

  host::PingReport ping(int count = 10) {
    host::PingConfig config;
    config.dst_mac = topo.h2().mac();
    config.dst_ip = topo.h2().ip();
    config.count = count;
    config.interval = sim::Duration::milliseconds(2);
    config.timeout = sim::Duration::milliseconds(200);
    host::IcmpPinger pinger(topo.h1(), config);
    pinger.start();
    const auto deadline = topo.simulator().now() + sim::Duration::seconds(3);
    while (!pinger.finished() && topo.simulator().now() < deadline) {
      topo.simulator().run_for(sim::Duration::milliseconds(10));
    }
    return pinger.report();
  }

  std::uint64_t total_evicted() {
    std::uint64_t evicted = 0;
    for (const auto* edge : topo.combiner().edges) {
      if (const auto* s = topo.combiner().compare->stats_for(edge->name()))
        evicted += s->evicted_timeout + s->evicted_capacity + s->evicted_quota;
    }
    return evicted;
  }
};

// --- Every shape the builder makes -----------------------------------------

enum class Shape { kCompare, kSampled, kDup, kDetect, kLegacy };

const char* to_string(Shape shape) {
  switch (shape) {
    case Shape::kCompare: return "Compare";
    case Shape::kSampled: return "CompareSampled";
    case Shape::kDup:     return "Dup";
    case Shape::kDetect:  return "Detect";
    case Shape::kLegacy:  return "Legacy";
  }
  return "?";
}

class CombinerShape : public ::testing::TestWithParam<Shape> {};

TEST_P(CombinerShape, StructureMatchesConfiguration) {
  const Shape shape = GetParam();
  sim::Simulator sim;
  device::Network net(sim);
  auto& h1 = net.add_node<host::Host>("h1", net::MacAddress::from_id(1),
                                      net::Ipv4Address::from_id(1));
  auto& h2 = net.add_node<host::Host>("h2", net::MacAddress::from_id(2),
                                      net::Ipv4Address::from_id(2));
  CombinerOptions options;
  options.mode = shape == Shape::kDup      ? EdgeMode::kDup
                 : shape == Shape::kDetect ? EdgeMode::kDetect
                                           : EdgeMode::kCompare;
  options.compare.sampling.enabled = shape == Shape::kSampled;
  // Two MACs behind h1's side: one screen per (replica port, local MAC).
  std::vector<PortAttachment> attachments = {
      {.neighbor = &h1,
       .link = {},
       .local_macs = {h1.mac(), net::MacAddress::from_id(3)}},
      {.neighbor = &h2, .link = {}, .local_macs = {h2.mac()}}};
  if (shape == Shape::kLegacy) {
    attachments[0].router_interface =
        iproute::Interface{.mac = net::MacAddress::from_id(100),
                           .ip = net::Ipv4Address::from_id(100)};
    attachments[1].router_interface =
        iproute::Interface{.mac = net::MacAddress::from_id(101),
                           .ip = net::Ipv4Address::from_id(101)};
  }
  const auto inst = build_combiner(net, options, attachments, "shape");
  const std::size_t k = 3;

  // Each replica: one port per edge.
  if (shape == Shape::kLegacy) {
    EXPECT_TRUE(inst.replicas.empty());
    ASSERT_EQ(inst.routers.size(), k);
    for (const auto* router : inst.routers) {
      EXPECT_EQ(router->port_count(), 2u);
    }
  } else {
    EXPECT_TRUE(inst.routers.empty());
    ASSERT_EQ(inst.replicas.size(), k);
    for (const auto* replica : inst.replicas) {
      EXPECT_EQ(replica->port_count(), 2u);
    }
    // Distinct vendor personalities (the diversity assumption).
    EXPECT_NE(inst.replicas[0]->profile().vendor,
              inst.replicas[1]->profile().vendor);
    EXPECT_NE(inst.replicas[1]->profile().vendor,
              inst.replicas[2]->profile().vendor);
  }
  // Each edge: 1 neighbor port + k replica ports.
  ASSERT_EQ(inst.edges.size(), 2u);
  for (const auto* edge : inst.edges) {
    EXPECT_EQ(edge->port_count(), 1 + k);
  }

  const bool combining = shape != Shape::kDup;
  EXPECT_EQ(inst.compare != nullptr, combining);
  EXPECT_EQ(inst.compare_controller != nullptr, combining);

  // One edge hook per edge, of the mode's kind, or none.
  const bool hooked = shape == Shape::kSampled || shape == Shape::kDetect;
  EXPECT_EQ(inst.edge_hooks.size(), hooked ? inst.edges.size() : 0u);
  for (const auto& hook : inst.edge_hooks) {
    if (shape == Shape::kDetect) {
      EXPECT_NE(dynamic_cast<SamplingEdgeLogic*>(hook.get()), nullptr);
    } else {
      EXPECT_NE(dynamic_cast<FastPathTap*>(hook.get()), nullptr);
    }
  }

  if (!combining) return;
  for (std::size_t i = 0; i < inst.edges.size(); ++i) {
    std::size_t hubs = 0;
    std::size_t screens = 0;
    for (const auto& rule : inst.edges[i]->table().entries()) {
      if (rule.priority == kHubPriority) ++hubs;
      if (rule.priority == kScreenPriority) ++screens;
    }
    EXPECT_EQ(hubs, 1u) << "edge " << i;
    EXPECT_EQ(screens, k * attachments[i].local_macs.size()) << "edge " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, CombinerShape,
    ::testing::Values(Shape::kCompare, Shape::kSampled, Shape::kDup,
                      Shape::kDetect, Shape::kLegacy),
    [](const ::testing::TestParamInfo<Shape>& pinfo) {
      return to_string(pinfo.param);
    });

// --- Assembled Fig. 3 combiner ----------------------------------------------

TEST(Combiner, BenignTrafficFlowsBothWays) {
  CombinerFixture f;
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_EQ(report.duplicates, 0);  // the compare removed every duplicate
}

// --- §II attack class 1: rerouting ------------------------------------------

TEST(Combiner, RerouteAttackContainedAndServiceSurvives) {
  CombinerFixture f;
  // The malicious replica sends h2-bound packets back toward h1's edge.
  adversary::RerouteBehavior reroute(
      adversary::match_dl_dst(f.topo.h2().mac()),
      f.topo.combiner().replica_edge_port[0][0]);
  f.topo.combiner().replicas[0]->set_interceptor(&reroute);

  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);  // two honest replicas out-vote it
  EXPECT_GT(reroute.attack_stats().packets_attacked, 0u);
  // The rerouted copies died inside the combiner, not at a host.
  EXPECT_EQ(f.topo.h1().stats().rx_stray, 0u);
  EXPECT_EQ(f.topo.h2().stats().rx_stray, 0u);
}

// --- §II attack class 2: mirroring -----------------------------------------

TEST(Combiner, MirrorTowardOriginScreenedOut) {
  // Exfiltration attempt toward the sender's own side: the trusted edge's
  // "ingress port matches MAC source" screen eats the copy before it can
  // even reach the compare.
  CombinerFixture f;
  adversary::MirrorBehavior mirror(
      adversary::match_dl_dst(f.topo.h2().mac()),
      f.topo.combiner().replica_edge_port[0][0]);  // back toward h1's edge
  f.topo.combiner().replicas[0]->set_interceptor(&mirror);

  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_GT(mirror.attack_stats().packets_attacked, 0u);
  // No mirrored copy reached either host.
  EXPECT_EQ(f.topo.h1().stats().rx_stray, 0u);
  EXPECT_EQ(report.duplicates, 0);
}

TEST(Combiner, MirrorAlongPathDetectedAsDuplicate) {
  // Mirroring along the legitimate direction doubles the replica's copies;
  // the compare counts them as same-port duplicates and never forwards a
  // second copy downstream.
  CombinerFixture f;
  adversary::MirrorBehavior mirror(
      adversary::match_dl_dst(f.topo.h2().mac()),
      f.topo.combiner().replica_edge_port[0][1]);  // same direction as route
  f.topo.combiner().replicas[0]->set_interceptor(&mirror);

  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_EQ(report.duplicates, 0);
  std::uint64_t dups = 0;
  for (const auto* edge : f.topo.combiner().edges) {
    if (const auto* s = f.topo.combiner().compare->stats_for(edge->name()))
      dups += s->duplicates_same_port;
  }
  EXPECT_GT(dups, 0u);
}

// --- §II attack class 3: packet modification --------------------------------

TEST(Combiner, PayloadCorruptionFilteredOut) {
  CombinerFixture f;
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::corrupt_payload());
  f.topo.combiner().replicas[0]->set_interceptor(&modify);

  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  // Delivered payloads were the honest ones: the host checksum counter
  // stays clean because corrupted copies never left the compare.
  EXPECT_EQ(f.topo.h2().stats().rx_bad_checksum, 0u);
}

TEST(Combiner, VlanRetagFilteredOut) {
  // The §II isolation-violation attack: retagging to hop VLAN domains.
  CombinerFixture f;
  adversary::ModifyBehavior modify(adversary::match_all(),
                                   adversary::ModifyBehavior::retag_vlan(999));
  f.topo.combiner().replicas[0]->set_interceptor(&modify);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
}

TEST(Combiner, MacRewriteSpoofBlockedByScreen) {
  // The replica rewrites the source MAC to impersonate h2 toward h1's
  // side; the edge's "ingress port matches MAC source" screen drops it.
  CombinerFixture f;
  adversary::ModifyBehavior modify(
      adversary::match_dl_dst(f.topo.h2().mac()),
      [mac = f.topo.h1().mac()](net::Packet& p) { net::set_dl_src(p, mac); });
  f.topo.combiner().replicas[0]->set_interceptor(&modify);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
  EXPECT_EQ(f.topo.h2().stats().rx_stray, 0u);
}

// --- §II attack class 3/4: dropping ----------------------------------------

TEST(Combiner, SingleDropperCannotCensor) {
  CombinerFixture f;
  adversary::DropBehavior drop(adversary::match_all());
  f.topo.combiner().replicas[0]->set_interceptor(&drop);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);  // 2-of-3 still a majority
}

TEST(Combiner, TwoDroppersDefeatK3) {
  // The flip side of the guarantee: a quorum of malicious replicas CAN
  // censor — k=3 tolerates exactly one.
  CombinerFixture f;
  adversary::DropBehavior drop0(adversary::match_all());
  adversary::DropBehavior drop1(adversary::match_all());
  f.topo.combiner().replicas[0]->set_interceptor(&drop0);
  f.topo.combiner().replicas[1]->set_interceptor(&drop1);
  const auto report = f.ping(5);
  EXPECT_EQ(report.received, 0);
}

TEST(Combiner, K5ToleratesTwoDroppers) {
  CombinerFixture f(5);
  adversary::DropBehavior drop0(adversary::match_all());
  adversary::DropBehavior drop1(adversary::match_all());
  f.topo.combiner().replicas[0]->set_interceptor(&drop0);
  f.topo.combiner().replicas[1]->set_interceptor(&drop1);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
}

TEST(Combiner, K5TwoModifiersOutvoted) {
  CombinerFixture f(5);
  adversary::ModifyBehavior m0(adversary::match_all(),
                               adversary::ModifyBehavior::corrupt_payload());
  adversary::ModifyBehavior m1(adversary::match_all(),
                               adversary::ModifyBehavior::corrupt_payload());
  f.topo.combiner().replicas[0]->set_interceptor(&m0);
  f.topo.combiner().replicas[1]->set_interceptor(&m1);
  const auto report = f.ping(10);
  EXPECT_EQ(report.received, 10);
}

// --- §II attack class 4: DoS flooding ---------------------------------------

TEST(Combiner, FloodingReplicaGetsBlockedAndTrafficSurvives) {
  CombinerFixture f;
  // The malicious replica fabricates a high-rate stream toward h2's edge —
  // enough to saturate the compare CPU outright.
  adversary::DosFlooder::Config flood_config;
  flood_config.out_port = f.topo.combiner().replica_edge_port[0][1];
  flood_config.packets_per_sec = 200'000;
  flood_config.packet_bytes = 200;
  flood_config.dst_mac = f.topo.h2().mac();
  flood_config.src_mac = f.topo.h1().mac();
  adversary::DosFlooder flooder(*f.topo.combiner().replicas[0], flood_config);
  flooder.start();

  // Pings spaced widely enough to observe the recovery after the compare
  // blocks the flooding port (expected within a few tens of ms).
  host::PingConfig ping_config;
  ping_config.dst_mac = f.topo.h2().mac();
  ping_config.dst_ip = f.topo.h2().ip();
  ping_config.count = 10;
  ping_config.interval = sim::Duration::milliseconds(50);
  ping_config.timeout = sim::Duration::milliseconds(500);
  host::IcmpPinger pinger(f.topo.h1(), ping_config);
  pinger.start();
  while (!pinger.finished() &&
         f.topo.simulator().now() < sim::TimePoint::origin() +
                                        sim::Duration::seconds(5)) {
    f.topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  const auto report = pinger.report();
  flooder.stop();

  EXPECT_GT(flooder.emitted(), 1000u);
  // No fabricated packet ever reached h2 as data.
  EXPECT_EQ(report.duplicates, 0);
  // The compare's garbage monitor advised blocking the flooding replica.
  bool blocked_alarm = false;
  for (const auto& alarm : f.topo.combiner().compare->alarms()) {
    if (alarm.kind == CompareAlarm::Kind::kPortBlocked && alarm.replica == 0)
      blocked_alarm = true;
  }
  EXPECT_TRUE(blocked_alarm);
  // Availability: once the port is blocked, echo cycles complete again.
  EXPECT_GE(report.received, 7);
}

// --- failure injection (§IV case 3) ------------------------------------------

TEST(Combiner, DeadReplicaLinkRaisesInactivityAlarmAndServiceSurvives) {
  // Mid-run, replica 2 loses both of its links (fiber cut / power loss).
  // Traffic continues on the 2-of-3 quorum and the compare eventually
  // declares the replica unavailable — the paper's administrator alarm.
  auto opts = CombinerFixture::make_opts(3, 1);
  opts.combiner.compare.inactivity_threshold = 20;
  topo::Figure3Topology topo(opts);

  topo.simulator().schedule_after(sim::Duration::milliseconds(20), [&] {
    for (const auto& links : topo.combiner().edge_replica_link) {
      links[2]->set_down(true);
    }
  });

  host::PingConfig config;
  config.dst_mac = topo.h2().mac();
  config.dst_ip = topo.h2().ip();
  config.count = 60;
  config.interval = sim::Duration::milliseconds(2);
  config.timeout = sim::Duration::milliseconds(200);
  host::IcmpPinger pinger(topo.h1(), config);
  pinger.start();
  while (!pinger.finished() && topo.simulator().now().sec() < 3.0) {
    topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  topo.simulator().run_for(sim::Duration::milliseconds(200));

  EXPECT_EQ(pinger.report().received, 60);  // availability held throughout
  bool inactive_alarm = false;
  for (const auto& alarm : topo.combiner().compare->alarms()) {
    if (alarm.kind == CompareAlarm::Kind::kReplicaInactive &&
        alarm.replica == 2)
      inactive_alarm = true;
  }
  EXPECT_TRUE(inactive_alarm);
}

}  // namespace
}  // namespace netco::core
