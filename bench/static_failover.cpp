// Static failover under correlated fabric failures: the DESIGN §16 sweep.
//
// A k=4 fat-tree with the combiner at the §VI attack position (0,0)
// carries an all-pods UDP workload (scenario/failover.h) while link cuts
// and switch kills land at one instant, and the only reaction allowed is
// the compiled guarded-backup layer — no controller is attached to the
// fabric. The headline claims gated by the verdict:
//
//   * an arbitrary single PRIMARY-PATH link cut is absorbed by the
//     static rules alone (goodput recovers; zero packet-ins, zero
//     invariant violations, zero duplicate egresses);
//   * so is a single primary-path switch kill;
//   * the ablation (no compiler) does NOT survive the same link cut —
//     proof the backup layer, not the topology, does the absorbing;
//   * same-seed runs are bit-deterministic, solo and as a fleet for any
//     shard count (1-circuit fleet reproduces the solo hash exactly).
//
// On top of the gates, a 0..F mixed sweep measures where static-only
// protection runs out: max_absorbed is the largest failure count every
// probe absorbed, handoff_failures the first that was not — recorded
// honestly (the measured limit, not a claim), since past that point the
// closed-loop resilience layers have to take over.
//
// Results land in BENCH_static_failover.json.
//
// Env knobs:
//   NETCO_BENCH_QUICK=1  — smaller sweep + shorter horizon (CI smoke)
//   NETCO_SOAK_OUT=path  — summary path (default BENCH_static_failover.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/failover.h"

namespace {

using namespace netco;

struct Cell {
  std::string label;
  int link_cuts = 0;
  int switch_kills = 0;
  scenario::FailoverResult result;
};

std::string cell_json(const Cell& cell) {
  const scenario::FailoverResult& r = cell.result;
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"label\":\"%s\",\"link_cuts\":%d,\"switch_kills\":%d,"
      "\"absorbed\":%s,\"recovered\":%s,\"goodput_overall\":%.4f,"
      "\"goodput_dip\":%.4f,\"reroute_latency_ms\":%.2f,"
      "\"static_backup_hits\":%llu,\"failover_reroutes\":%llu,"
      "\"dropped_no_rule\":%llu,\"controller_packet_ins\":%llu,"
      "\"backup_rules\":%zu,\"fault_events\":%llu,\"duplicates\":%llu,"
      "\"invariant_violations\":%llu,\"stream_hash\":\"%s\"}",
      cell.label.c_str(), cell.link_cuts, cell.switch_kills,
      r.absorbed ? "true" : "false", r.recovered ? "true" : "false",
      r.goodput_overall, r.goodput_dip,
      r.reroute_latency_ns >= 0
          ? static_cast<double>(r.reroute_latency_ns) / 1e6
          : -1.0,
      static_cast<unsigned long long>(r.static_backup_hits),
      static_cast<unsigned long long>(r.failover_reroutes),
      static_cast<unsigned long long>(r.dropped_no_rule),
      static_cast<unsigned long long>(r.controller_packet_ins),
      r.backup_rules_installed,
      static_cast<unsigned long long>(r.fault_events),
      static_cast<unsigned long long>(r.duplicates),
      static_cast<unsigned long long>(r.invariant_violations),
      bench::hash_hex(r.stream_hash).c_str());
  return buf;
}

void print_cell(const Cell& cell) {
  const scenario::FailoverResult& r = cell.result;
  std::printf("%-12s %-5d %-6d %-9s %-8.4f %-8.4f %-9.2f %-9llu %s\n",
              cell.label.c_str(), cell.link_cuts, cell.switch_kills,
              r.absorbed ? "yes" : "NO", r.goodput_overall, r.goodput_dip,
              r.reroute_latency_ns >= 0
                  ? static_cast<double>(r.reroute_latency_ns) / 1e6
                  : -1.0,
              static_cast<unsigned long long>(r.failover_reroutes),
              bench::hash_hex(r.stream_hash).c_str());
}

}  // namespace

int main() {
  bench::print_header(
      "static failover",
      "Correlated link cuts + switch kills against a k=4 fat-tree whose\n"
      "only defence is the compiled guarded-backup layer — no controller\n"
      "in the loop. Sweeps 0..F concurrent failures for the handoff point.");

  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;

  scenario::FailoverOptions base;
  base.seed = bench::env_u64("NETCO_FAILOVER_SEED", 1);
  base.horizon = quick ? sim::Duration::milliseconds(500)
                       : sim::Duration::milliseconds(800);
  const int sweep_max = quick ? 2 : 4;

  std::vector<Cell> cells;
  std::printf("%-12s %-5s %-6s %-9s %-8s %-8s %-9s %-9s %s\n", "cell",
              "cuts", "kills", "absorbed", "overall", "dip", "rr_ms",
              "reroutes", "stream");

  const auto run_cell = [&](std::string label, int link_cuts,
                            int switch_kills, faultinject::KillTarget target,
                            bool compile) -> const Cell& {
    scenario::FailoverOptions options = base;
    options.link_cuts = link_cuts;
    options.switch_kills = switch_kills;
    options.target = target;
    options.compile_backup_rules = compile;
    Cell cell;
    cell.label = std::move(label);
    cell.link_cuts = link_cuts;
    cell.switch_kills = switch_kills;
    cell.result = scenario::run_failover(options);
    print_cell(cell);
    cells.push_back(std::move(cell));
    return cells.back();
  };

  // The gated cells: primary-path failures, so traffic impact is certain.
  const auto kPrimary = faultinject::KillTarget::kPrimaryPath;
  run_cell("baseline", 0, 0, kPrimary, true);
  run_cell("link1", 1, 0, kPrimary, true);
  run_cell("switch1", 0, 1, kPrimary, true);
  run_cell("nocompiler", 1, 0, kPrimary, false);

  // The mixed sweep: where does static-only protection run out? Drawn
  // from the primary-path pool so every failure provably hits traffic
  // (kAny mostly draws elements the deterministic routing never uses).
  int max_absorbed = 0;
  int handoff = -1;
  for (int f = 1; f <= sweep_max; ++f) {
    const int kills = f / 3;
    const int cuts = f - kills;
    char label[32];
    std::snprintf(label, sizeof label, "mixed%d", f);
    const Cell& cell = run_cell(label, cuts, kills, kPrimary, true);
    if (cell.result.absorbed && handoff < 0) {
      max_absorbed = f;
    } else if (handoff < 0) {
      handoff = f;
    }
  }

  const auto find_cell = [&](const char* label) -> const Cell& {
    for (const Cell& cell : cells) {
      if (cell.label == label) return cell;
    }
    std::abort();
  };

  // Same-seed determinism: the single-link-cut run, twice solo, then as a
  // 2-circuit fleet on 1 and 2 shards (merged hashes must agree), and as
  // a 1-circuit fleet (must reproduce the solo hash bit-for-bit).
  scenario::FailoverOptions repeat = base;
  repeat.link_cuts = 1;
  repeat.target = kPrimary;
  const scenario::FailoverResult again = scenario::run_failover(repeat);
  const std::uint64_t solo_hash = find_cell("link1").result.stream_hash;
  const auto fleet1 = scenario::run_failover_fleet(repeat, 1, 1);
  const auto fleet2a = scenario::run_failover_fleet(repeat, 2, 1);
  const auto fleet2b = scenario::run_failover_fleet(repeat, 2, 2);
  const bool deterministic = again.stream_hash == solo_hash &&
                             fleet1.merged_stream_hash == solo_hash &&
                             fleet2a.merged_stream_hash ==
                                 fleet2b.merged_stream_hash;
  std::printf("\nsame-seed determinism (solo x2, fleet 1c, fleet 2c x "
              "{1,2} shards): %s\n",
              deterministic ? "bit-identical streams" : "HASH MISMATCH");

  const Cell& baseline = find_cell("baseline");
  const bool ok = baseline.result.absorbed &&
                  baseline.result.goodput_overall >= 0.9999 &&
                  find_cell("link1").result.absorbed &&
                  find_cell("switch1").result.absorbed &&
                  !find_cell("nocompiler").result.absorbed &&
                  deterministic;

  std::string configs = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) configs += ',';
    configs += cell_json(cells[i]);
  }
  configs += "]";
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"quick\":%s,\"seed\":%llu,\"k\":%d,\"sweep_max\":%d,"
                "\"max_absorbed\":%d,\"handoff_failures\":%d,"
                "\"deterministic\":%s,",
                quick ? "true" : "false",
                static_cast<unsigned long long>(base.seed),
                scenario::FailoverOptions::kRadix, sweep_max,
                max_absorbed, handoff,
                deterministic ? "true" : "false");
  const std::string summary = std::string(head) + "\"configs\":" + configs +
                              ",\"verdict\":\"" + (ok ? "pass" : "fail") +
                              "\"}";

  const char* out_path = std::getenv("NETCO_SOAK_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_static_failover.json";
  }
  bench::write_bench_file(out_path, summary);
  std::printf("\nStatic-failover sweep recorded in %s (max absorbed: %d, "
              "handoff at: %d)\n",
              out_path, max_absorbed, handoff);

  std::printf("\nStatic failover verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
