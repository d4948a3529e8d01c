// §VI case study: the datacenter routing attack in a k=4 fat-tree —
// baseline, attacked, and NetCo-protected, with the paper's exact counts.
//
// Part two scales the construction to what the paper actually pitches —
// a *fleet* of protected circuits — by running ≥64 independent combiner
// circuits on a sim::ShardedSimulator with cross-shard beacon links, and
// sweeping the shard count. Checks, all load-bearing:
//   * merged stream/egress hashes identical for shards ∈ {1, 2, 4};
//   * a same-seed double run at shards=4 is bit-deterministic;
//   * a 1-circuit sharded run reproduces run_soak() for each soak_netco
//     baseline configuration (so shards=1 preserves its recorded hashes);
//   * every circuit's invariant checkers (duplicate egress armed via the
//     sampled fast path, quorum checks) stay green across shard
//     boundaries.
// The shard sweep's aggregate wall-pps lands in BENCH_datacenter.json.
// Speedup is reported against hardware_threads — on a 1-core host the
// sweep measures barrier overhead, not parallelism.
//
// Env knobs:
//   NETCO_DC_CIRCUITS=n  — fleet size (default 64)
//   NETCO_DC_PACKETS=n   — datagrams per circuit (default 4000)
//   NETCO_BENCH_QUICK=1  — small CI-sized fleet runs (500 packets)
//   NETCO_SOAK_OUT=path  — summary path (default BENCH_datacenter.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_common.h"
#include "scenario/case_study.h"
#include "scenario/sharded_soak.h"

namespace {

using namespace netco;

using bench::env_u64;
using bench::hash_hex;

/// soak_netco's baseline circuits (soak_netco.cpp keeps the canonical
/// copies of these configs and their recorded stream hashes).
scenario::SoakOptions baseline_config(int k, core::ReleasePolicy policy,
                                      std::uint64_t rate_mbps,
                                      std::uint64_t packets) {
  scenario::SoakOptions options;
  options.k = k;
  options.policy = policy;
  options.seed = 0xDECAFBAD ^ static_cast<std::uint64_t>(k);
  options.packets = packets;
  options.rate = DataRate::megabits_per_sec(rate_mbps);
  return options;
}

bool run_case_study_table() {
  using namespace netco::scenario;
  bench::print_header(
      "Case study §VI (datacenter routing attack)",
      "Malicious aggregation switch mirrors fw1-bound traffic to a core "
      "switch and drops vm1-bound replies; 10 ICMP echo cycles vm1 → fw1.");

  stats::TablePrinter table({"scenario", "sent", "req@fw1 (paper)",
                             "replies@vm1 (paper)", "mirrored@core", "stray",
                             "compare: in/rel/evict"});
  struct Expect {
    CaseStudyMode mode;
    int paper_fw1;
    int paper_vm1;
  };
  const Expect rows[] = {
      {CaseStudyMode::kBaseline, 10, 10},
      {CaseStudyMode::kAttacked, 20, 0},
      {CaseStudyMode::kProtected, 10, 10},
  };
  bool ok = true;
  for (const auto& row : rows) {
    const auto r = run_case_study(row.mode, 10);
    ok = ok && r.requests_at_fw1 == static_cast<std::uint64_t>(row.paper_fw1) &&
         r.replies_received_at_vm1 == row.paper_vm1;
    char fw1[32], vm1[32], compare[48];
    std::snprintf(fw1, sizeof fw1, "%llu (%d)",
                  static_cast<unsigned long long>(r.requests_at_fw1),
                  row.paper_fw1);
    std::snprintf(vm1, sizeof vm1, "%d (%d)", r.replies_received_at_vm1,
                  row.paper_vm1);
    std::snprintf(compare, sizeof compare, "%llu/%llu/%llu",
                  static_cast<unsigned long long>(r.compare_ingested),
                  static_cast<unsigned long long>(r.compare_released),
                  static_cast<unsigned long long>(r.compare_evicted_minority));
    table.add_row({to_string(row.mode), std::to_string(r.requests_sent), fw1,
                   vm1, std::to_string(r.mirrored_at_core),
                   std::to_string(r.stray_at_hosts), compare});
  }
  table.print();
  std::printf(
      "\nPaper narrative reproduced: the attack doubles requests at fw1 and\n"
      "silences vm1; inside NetCo the mirrored copies arrive at the compare\n"
      "but never leave it, and 2-of-3 reply copies still win the vote.\n");
  return ok;
}

}  // namespace

int main() {
  bench::ObsSession obs_session;
  bool all_ok = run_case_study_table();
  obs_session.dump_metrics("casestudy");

  // --- datacenter-scale fleet: ≥64 circuits, shard-count sweep ----------
  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;
  const std::uint64_t circuits = env_u64("NETCO_DC_CIRCUITS", 64);
  const std::uint64_t packets =
      env_u64("NETCO_DC_PACKETS", quick ? 500 : 4000);
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  std::printf(
      "\n=== Datacenter fleet — %llu combiner circuits, sharded DES ===\n"
      "%llu datagrams per circuit, cross-shard beacons on, %u hardware "
      "threads.\n\n",
      static_cast<unsigned long long>(circuits),
      static_cast<unsigned long long>(packets), hardware_threads);

  // Per-circuit config: k=3 majority with the sampled fast path, so the
  // duplicate-egress invariant is armed in every circuit of the fleet
  // (quorum checks are armed regardless).
  scenario::ShardedSoakOptions fleet;
  fleet.base = baseline_config(3, core::ReleasePolicy::kMajority, 16, packets);
  fleet.base.sampling.enabled = true;
  fleet.circuits = circuits;
  fleet.cross_shard_beacons = true;

  struct SweepPoint {
    int shards;
    scenario::ShardedSoakResult result;
  };
  SweepPoint sweep[] = {{1, {}}, {2, {}}, {4, {}}};
  for (SweepPoint& point : sweep) {
    fleet.shards = point.shards;
    point.result = scenario::run_sharded_soak(fleet);
    const scenario::ShardedSoakResult& r = point.result;
    std::printf(
        "shards=%d  wall=%.2fs  wall-pps=%.0f  rounds=%llu  "
        "cross-shard msgs=%llu  beacons=%llu  merged hash=%s  %s\n",
        point.shards, r.wall_seconds, r.wall_pps,
        static_cast<unsigned long long>(r.rounds),
        static_cast<unsigned long long>(r.cross_shard_messages),
        static_cast<unsigned long long>(r.beacons_received),
        hash_hex(r.merged_stream_hash).c_str(), r.ok() ? "OK" : "FAIL");
    all_ok = all_ok && r.ok();
  }

  // Hash invariance across the sweep, and a same-seed double run at the
  // widest point.
  const bool hash_invariant =
      sweep[0].result.merged_stream_hash == sweep[1].result.merged_stream_hash &&
      sweep[0].result.merged_stream_hash == sweep[2].result.merged_stream_hash &&
      sweep[0].result.merged_egress_hash == sweep[1].result.merged_egress_hash &&
      sweep[0].result.merged_egress_hash == sweep[2].result.merged_egress_hash;
  fleet.shards = 4;
  const scenario::ShardedSoakResult rerun = scenario::run_sharded_soak(fleet);
  const bool deterministic =
      rerun.merged_stream_hash == sweep[2].result.merged_stream_hash &&
      rerun.merged_egress_hash == sweep[2].result.merged_egress_hash &&
      rerun.metrics_json == sweep[2].result.metrics_json;
  const double speedup = sweep[0].result.wall_pps > 0.0
                             ? sweep[2].result.wall_pps / sweep[0].result.wall_pps
                             : 0.0;
  std::printf(
      "\nmerged hashes shard-count invariant: %s; shards=4 double run "
      "deterministic: %s\n4-shard speedup over 1 shard: %.2fx wall-pps "
      "(%u hardware threads available)\n",
      hash_invariant ? "yes" : "NO", deterministic ? "yes" : "NO", speedup,
      hardware_threads);
  all_ok = all_ok && hash_invariant && deterministic;

  // Baseline equivalence: a 1-circuit sharded run must reproduce
  // run_soak() bit-for-bit for each BENCH_soak configuration — the
  // property that keeps soak_netco's recorded stream hashes valid at
  // shards=1.
  struct Baseline {
    const char* name;
    int k;
    core::ReleasePolicy policy;
    std::uint64_t rate_mbps;
  };
  const Baseline baselines[] = {
      {"k2-firstcopy", 2, core::ReleasePolicy::kFirstCopy, 24},
      {"k3-majority", 3, core::ReleasePolicy::kMajority, 16},
      {"k5-majority", 5, core::ReleasePolicy::kMajority, 10},
  };
  std::printf("\nbaseline equivalence (1-circuit fleet vs run_soak):\n");
  std::string baseline_json = "[";
  for (std::size_t i = 0; i < 3; ++i) {
    const Baseline& b = baselines[i];
    const scenario::SoakOptions options =
        baseline_config(b.k, b.policy, b.rate_mbps, packets);
    const scenario::SoakResult solo = scenario::run_soak(options);
    scenario::ShardedSoakOptions one;
    one.base = options;
    one.circuits = 1;
    one.shards = 1;
    const scenario::ShardedSoakResult fleet_one =
        scenario::run_sharded_soak(one);
    const bool match = fleet_one.merged_stream_hash == solo.stream_hash &&
                       fleet_one.merged_egress_hash == solo.egress_set_hash &&
                       fleet_one.metrics_json == solo.metrics_json;
    all_ok = all_ok && match;
    std::printf("  %-14s solo=%s sharded=%s  %s\n", b.name,
                hash_hex(solo.stream_hash).c_str(),
                hash_hex(fleet_one.merged_stream_hash).c_str(),
                match ? "match" : "MISMATCH");
    baseline_json += std::string(i == 0 ? "" : ",") + "{\"name\":\"" + b.name +
                     "\",\"stream_hash\":\"" + hash_hex(solo.stream_hash) +
                     "\",\"shards1_match\":" + (match ? "true" : "false") +
                     "}";
  }
  baseline_json += "]";

  std::string sweep_json = "[";
  for (std::size_t i = 0; i < 3; ++i) {
    const scenario::ShardedSoakResult& r = sweep[i].result;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"shards\":%d,\"wall_seconds\":%.3f,\"wall_pps\":%.1f,"
        "\"rounds\":%llu,\"cross_shard_messages\":%llu,"
        "\"beacons_received\":%llu,\"datagrams_sent\":%llu,"
        "\"duplicate_egress\":%llu,\"merged_stream_hash\":\"%s\"}",
        i == 0 ? "" : ",", sweep[i].shards, r.wall_seconds, r.wall_pps,
        static_cast<unsigned long long>(r.rounds),
        static_cast<unsigned long long>(r.cross_shard_messages),
        static_cast<unsigned long long>(r.beacons_received),
        static_cast<unsigned long long>(r.datagrams_sent),
        static_cast<unsigned long long>(r.duplicate_egress),
        hash_hex(r.merged_stream_hash).c_str());
    sweep_json += buf;
  }
  sweep_json += "]";

  char head[256];
  std::snprintf(head, sizeof head,
                "{\"circuits\":%llu,\"packets_per_circuit\":%llu,"
                "\"hardware_threads\":%u,\"speedup_4shard_vs_1\":%.3f,"
                "\"hash_invariant\":%s,\"deterministic_at_4\":%s,",
                static_cast<unsigned long long>(circuits),
                static_cast<unsigned long long>(packets), hardware_threads,
                speedup, hash_invariant ? "true" : "false",
                deterministic ? "true" : "false");
  const std::string summary = std::string(head) + "\"sweep\":" + sweep_json +
                              ",\"baseline\":" + baseline_json +
                              ",\"verdict\":\"" + (all_ok ? "pass" : "fail") +
                              "\"}";

  const char* out_path = std::getenv("NETCO_SOAK_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_datacenter.json";
  }
  netco::bench::write_bench_file(out_path, summary);
  std::printf("\nDatacenter sweep recorded in %s\n", out_path);

  std::printf("\nDatacenter fleet verdict: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
