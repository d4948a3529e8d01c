// End-to-end property sweep: random combinations of §II attacks on a
// random minority of replicas must never break the combiner guarantees.
//
// For every seed: build a Fig. 3 Central topology (k ∈ {3,5}), install a
// randomly chosen behaviour (drop / corrupt / retag / mirror / reroute) on
// each of floor((k-1)/2) randomly chosen replicas, run ping + a UDP burst,
// and assert:
//   G1  all echo cycles complete (availability);
//   G2  no corrupted packet reaches a host (integrity);
//   G3  no duplicate deliveries (exactly-once);
//   G4  no stray frames at hosts (containment).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "adversary/behaviors.h"
#include "common/fmt.h"
#include "common/rng.h"
#include "host/ping.h"
#include "host/udp_app.h"
#include "scenario/scenarios.h"
#include "topo/figure3.h"

namespace netco {
namespace {

std::unique_ptr<device::DatapathInterceptor> random_attack(
    Rng& rng, topo::Figure3Topology& topo, std::size_t replica_index) {
  using adversary::match_all;
  const auto& combiner = topo.combiner();
  switch (rng.uniform_u64(5)) {
    case 0:
      return std::make_unique<adversary::DropBehavior>(match_all());
    case 1:
      return std::make_unique<adversary::ModifyBehavior>(
          match_all(), adversary::ModifyBehavior::corrupt_payload());
    case 2:
      return std::make_unique<adversary::ModifyBehavior>(
          match_all(), adversary::ModifyBehavior::retag_vlan(
                           static_cast<std::uint16_t>(rng.uniform_u64(4094) + 1)));
    case 3:
      return std::make_unique<adversary::MirrorBehavior>(
          match_all(),
          combiner.replica_edge_port[replica_index][rng.uniform_u64(2)]);
    default:
      return std::make_unique<adversary::RerouteBehavior>(
          match_all(),
          combiner.replica_edge_port[replica_index][rng.uniform_u64(2)]);
  }
}

struct E2eParam {
  int k;
  std::uint64_t seed;
};

class RandomAdversary : public ::testing::TestWithParam<E2eParam> {};

TEST_P(RandomAdversary, GuaranteesHoldUnderMinorityAttack) {
  const auto param = GetParam();
  Rng rng(param.seed);
  topo::Figure3Topology topo(scenario::make_options(
      param.k == 5 ? scenario::ScenarioKind::kCentral5
                   : scenario::ScenarioKind::kCentral3,
      param.seed));

  // Attack floor((k-1)/2) distinct replicas with random behaviours.
  const int attackers = (param.k - 1) / 2;
  std::vector<std::unique_ptr<device::DatapathInterceptor>> attacks;
  std::vector<std::size_t> victims;
  while (victims.size() < static_cast<std::size_t>(attackers)) {
    const auto candidate =
        static_cast<std::size_t>(rng.uniform_u64(static_cast<std::uint64_t>(param.k)));
    if (std::find(victims.begin(), victims.end(), candidate) != victims.end())
      continue;
    victims.push_back(candidate);
    attacks.push_back(random_attack(rng, topo, candidate));
    topo.combiner().replicas[candidate]->set_interceptor(attacks.back().get());
  }

  // G1: availability under ping.
  host::PingConfig ping_config;
  ping_config.dst_mac = topo.h2().mac();
  ping_config.dst_ip = topo.h2().ip();
  ping_config.count = 15;
  ping_config.interval = sim::Duration::milliseconds(2);
  ping_config.timeout = sim::Duration::milliseconds(200);
  host::IcmpPinger pinger(topo.h1(), ping_config);
  pinger.start();
  while (!pinger.finished() && topo.simulator().now().sec() < 3.0) {
    topo.simulator().run_for(sim::Duration::milliseconds(10));
  }
  const auto ping = pinger.report();
  EXPECT_EQ(ping.received, 15) << "k=" << param.k << " seed=" << param.seed;
  EXPECT_EQ(ping.duplicates, 0);  // G3 for ICMP

  // G1–G3 under a UDP burst.
  host::UdpSenderConfig udp_config;
  udp_config.dst_mac = topo.h2().mac();
  udp_config.dst_ip = topo.h2().ip();
  udp_config.rate = DataRate::megabits_per_sec(40);
  host::UdpSender sender(topo.h1(), udp_config);
  host::UdpSink sink(topo.h2(), udp_config.dst_port);
  sender.start();
  topo.simulator().run_for(sim::Duration::milliseconds(200));
  sender.stop();
  topo.simulator().run_for(sim::Duration::milliseconds(50));
  const auto report = sink.report();
  EXPECT_LT(report.loss_rate, 0.01);
  EXPECT_EQ(report.duplicates, 0u);

  // G2: integrity — no corrupted frame survived to a host.
  EXPECT_EQ(topo.h1().stats().rx_bad_checksum, 0u);
  EXPECT_EQ(topo.h2().stats().rx_bad_checksum, 0u);
  // G4: containment — no stray frames.
  EXPECT_EQ(topo.h1().stats().rx_stray, 0u);
  EXPECT_EQ(topo.h2().stats().rx_stray, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomAdversary,
    ::testing::Values(E2eParam{3, 11}, E2eParam{3, 12}, E2eParam{3, 13},
                      E2eParam{3, 14}, E2eParam{3, 15}, E2eParam{5, 21},
                      E2eParam{5, 22}, E2eParam{5, 23}, E2eParam{5, 24},
                      E2eParam{5, 25}),
    [](const ::testing::TestParamInfo<E2eParam>& pinfo) {
      return fmt("k{}_seed{}", pinfo.param.k, pinfo.param.seed);
    });

}  // namespace
}  // namespace netco
