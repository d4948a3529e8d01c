// Tier-1 smoke for the sharded fleet soak: merged hashes must be
// identical for shards ∈ {1, 2, 4}, a 1-circuit fleet must reproduce
// run_soak() bit-for-bit, and cross-shard beacon traffic must be
// trace-neutral. The datacenter-scale version lives in
// bench/casestudy_datacenter.
#include <gtest/gtest.h>

#include "common/hash.h"
#include "scenario/sharded_soak.h"
#include "scenario/soak.h"

namespace netco::scenario {
namespace {

SoakOptions base_options() {
  SoakOptions options;
  options.k = 3;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 77;
  options.packets = 2500;  // ~0.25 s of sim time per circuit
  return options;
}

ShardedSoakOptions fleet_options(std::size_t circuits, int shards,
                                 bool beacons = false) {
  ShardedSoakOptions options;
  options.base = base_options();
  options.circuits = circuits;
  options.shards = shards;
  options.cross_shard_beacons = beacons;
  return options;
}

TEST(ShardedSoak, SingleCircuitReproducesRunSoak) {
  const SoakResult solo = run_soak(base_options());
  const ShardedSoakResult fleet = run_sharded_soak(fleet_options(1, 1));
  ASSERT_EQ(fleet.circuits.size(), 1u);
  EXPECT_TRUE(fleet.ok());
  EXPECT_EQ(fleet.merged_stream_hash, solo.stream_hash);
  EXPECT_EQ(fleet.merged_egress_hash, solo.egress_set_hash);
  EXPECT_EQ(fleet.circuits[0].trace_records, solo.trace_records);
  EXPECT_EQ(fleet.circuits[0].compare_released, solo.compare_released);
  EXPECT_EQ(fleet.datagrams_sent, solo.datagrams_sent);
  EXPECT_EQ(fleet.metrics_json, solo.metrics_json);
}

TEST(ShardedSoak, MergedHashIsShardCountInvariant) {
  const ShardedSoakResult one = run_sharded_soak(fleet_options(4, 1));
  const ShardedSoakResult two = run_sharded_soak(fleet_options(4, 2));
  const ShardedSoakResult four = run_sharded_soak(fleet_options(4, 4));
  EXPECT_TRUE(one.ok());
  EXPECT_TRUE(two.ok());
  EXPECT_TRUE(four.ok());
  EXPECT_EQ(one.merged_stream_hash, two.merged_stream_hash);
  EXPECT_EQ(one.merged_stream_hash, four.merged_stream_hash);
  EXPECT_EQ(one.merged_egress_hash, two.merged_egress_hash);
  EXPECT_EQ(one.merged_egress_hash, four.merged_egress_hash);
  EXPECT_EQ(one.rounds, two.rounds);
  EXPECT_EQ(one.rounds, four.rounds);
  EXPECT_EQ(one.metrics_json, four.metrics_json);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(one.circuits[i].stream_hash, two.circuits[i].stream_hash)
        << "circuit " << i;
    EXPECT_EQ(one.circuits[i].stream_hash, four.circuits[i].stream_hash)
        << "circuit " << i;
    EXPECT_EQ(one.circuits[i].trace_records, four.circuits[i].trace_records)
        << "circuit " << i;
  }
  // Distinct seeds: the fold must actually see distinct streams.
  EXPECT_NE(one.circuits[0].stream_hash, one.circuits[1].stream_hash);
}

TEST(ShardedSoak, FleetCircuitsMatchSoloRuns) {
  // Circuits sharing one worker must each report their own percentiles
  // and metrics, exactly as if run alone.
  const ShardedSoakResult fleet = run_sharded_soak(fleet_options(4, 1));
  ASSERT_EQ(fleet.circuits.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    SoakOptions options = base_options();
    if (i != 0) options.seed = hash_mix(options.seed, i);
    const SoakResult solo = run_soak(options);
    EXPECT_EQ(fleet.circuits[i].stream_hash, solo.stream_hash)
        << "circuit " << i;
    EXPECT_EQ(fleet.circuits[i].verdict_p99_us, solo.verdict_p99_us)
        << "circuit " << i;
    EXPECT_EQ(fleet.circuits[i].metrics_json, solo.metrics_json)
        << "circuit " << i;
  }
}

TEST(ShardedSoak, DoubleRunIsDeterministic) {
  const ShardedSoakResult a = run_sharded_soak(fleet_options(3, 2));
  const ShardedSoakResult b = run_sharded_soak(fleet_options(3, 2));
  EXPECT_EQ(a.merged_stream_hash, b.merged_stream_hash);
  EXPECT_EQ(a.merged_egress_hash, b.merged_egress_hash);
  EXPECT_EQ(a.datagrams_sent, b.datagrams_sent);
  EXPECT_EQ(a.rounds, b.rounds);
  // Same shard count ⇒ same pinning ⇒ the merged metrics snapshot is
  // textually identical too (histogram float sums add in a fixed order).
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(ShardedSoak, BeaconTrafficIsTraceNeutral) {
  const ShardedSoakResult quiet = run_sharded_soak(fleet_options(2, 2, false));
  const ShardedSoakResult chatty = run_sharded_soak(fleet_options(2, 2, true));
  EXPECT_EQ(quiet.cross_shard_messages, 0u);
  EXPECT_GT(chatty.cross_shard_messages, 0u);
  EXPECT_GT(chatty.beacons_received, 0u);
  // The shard-crossing link traffic must not perturb any circuit's
  // protocol event stream.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(quiet.circuits[i].stream_hash, chatty.circuits[i].stream_hash)
        << "circuit " << i;
    EXPECT_EQ(quiet.circuits[i].egress_set_hash,
              chatty.circuits[i].egress_set_hash)
        << "circuit " << i;
  }
  EXPECT_EQ(quiet.merged_stream_hash, chatty.merged_stream_hash);
}

}  // namespace
}  // namespace netco::scenario
