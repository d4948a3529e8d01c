// Routing convergence under control-plane attack: the DESIGN §15 matrix.
//
// A diamond of four RIP-speaking legacy routers (scenario/convergence.h)
// is run across {unprotected, combiner-protected} × {0, 1, 2 liars}, the
// liars telling metric-inflation lies from inside the RA—RB router
// position. Measured per cell: whether the control plane converges to
// the benign ground-truth tables, how long that takes, and the goodput
// of an hA→hB probe flow during the convergence transient. The headline
// claims gated by the verdict:
//
//   * benign runs converge correctly in both modes;
//   * ONE liar defeats the unprotected position but not the k=3
//     combiner (2/3 honest quorum filters the lie);
//   * a combiner-protected run is bit-deterministic (same-seed double
//     run, identical trace stream hashes).
//
// Two identical liars out-vote the k=3 quorum — recorded (the quorum
// boundary made measurable) but not gated, since it is the expected
// failure mode, not a regression signal.
//
// Results land in BENCH_routing.json.
//
// Env knobs:
//   NETCO_BENCH_QUICK=1  — short horizon (CI smoke)
//   NETCO_SOAK_OUT=path  — summary path (default BENCH_routing.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/convergence.h"

namespace {

using namespace netco;

struct Cell {
  bool use_combiner = false;
  int liars = 0;
  scenario::ConvergenceResult result;
};

std::string cell_json(const Cell& cell) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"mode\":\"%s\",\"liars\":%d,\"converged_correct\":%s,"
      "\"convergence_ms\":%.1f,\"goodput_during_convergence\":%.4f,"
      "\"goodput_overall\":%.4f,\"data_dropped_by_liars\":%llu,"
      "\"updates_sent\":%llu,\"route_changes\":%llu,"
      "\"invariant_violations\":%llu,\"stream_hash\":\"%s\"}",
      cell.use_combiner ? "combiner" : "unprotected", cell.liars,
      cell.result.converged_correct ? "true" : "false",
      cell.result.convergence_ns >= 0
          ? static_cast<double>(cell.result.convergence_ns) / 1e6
          : -1.0,
      cell.result.goodput_during_convergence, cell.result.goodput_overall,
      static_cast<unsigned long long>(cell.result.data_dropped_by_liars),
      static_cast<unsigned long long>(cell.result.updates_sent),
      static_cast<unsigned long long>(cell.result.route_changes),
      static_cast<unsigned long long>(cell.result.invariant_violations),
      bench::hash_hex(cell.result.stream_hash).c_str());
  return buf;
}

}  // namespace

int main() {
  bench::print_header(
      "routing convergence",
      "RIP-v2 convergence through the router position, with and without\n"
      "the combiner, while 0-2 replicas inside it lie about metrics.");

  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;

  scenario::ConvergenceOptions base;
  base.seed = bench::env_u64("NETCO_ROUTING_SEED", 1);
  base.attack = scenario::RoutingAttack::kInflate;
  base.horizon =
      quick ? sim::Duration::milliseconds(1500) : sim::Duration::seconds(3);

  std::vector<Cell> cells;
  std::printf("%-12s %-6s %-10s %-12s %-12s %-9s %s\n", "mode", "liars",
              "converged", "conv_ms", "goodput@cv", "overall", "stream");
  for (const bool use_combiner : {false, true}) {
    for (const int liars : {0, 1, 2}) {
      scenario::ConvergenceOptions options = base;
      options.use_combiner = use_combiner;
      options.liars = liars;
      Cell cell{.use_combiner = use_combiner,
                .liars = liars,
                .result = scenario::run_convergence(options)};
      std::printf("%-12s %-6d %-10s %-12.1f %-12.4f %-9.4f %s\n",
                  use_combiner ? "combiner" : "unprotected", liars,
                  cell.result.converged_correct ? "yes" : "NO",
                  cell.result.convergence_ns >= 0
                      ? static_cast<double>(cell.result.convergence_ns) / 1e6
                      : -1.0,
                  cell.result.goodput_during_convergence,
                  cell.result.goodput_overall,
                  bench::hash_hex(cell.result.stream_hash).c_str());
      cells.push_back(std::move(cell));
    }
  }

  const auto find_cell = [&](bool combiner, int liars) -> const Cell& {
    for (const Cell& cell : cells) {
      if (cell.use_combiner == combiner && cell.liars == liars) return cell;
    }
    std::abort();
  };

  // Same-seed determinism: the protected 1-liar run, twice.
  scenario::ConvergenceOptions repeat = base;
  repeat.use_combiner = true;
  repeat.liars = 1;
  const scenario::ConvergenceResult again = scenario::run_convergence(repeat);
  const bool deterministic =
      again.stream_hash == find_cell(true, 1).result.stream_hash;
  std::printf("\nsame-seed double run (combiner, 1 liar): %s\n",
              deterministic ? "bit-identical stream" : "HASH MISMATCH");

  std::uint64_t violations = 0;
  for (const Cell& cell : cells) {
    violations += cell.result.invariant_violations;
  }
  const bool ok = find_cell(false, 0).result.converged_correct &&
                  find_cell(true, 0).result.converged_correct &&
                  find_cell(true, 1).result.converged_correct &&
                  !find_cell(false, 1).result.converged_correct &&
                  deterministic && violations == 0;

  std::string configs = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) configs += ',';
    configs += cell_json(cells[i]);
  }
  configs += "]";
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"quick\":%s,\"attack\":\"%s\",\"seed\":%llu,"
                "\"deterministic\":%s,",
                quick ? "true" : "false", to_string(base.attack),
                static_cast<unsigned long long>(base.seed),
                deterministic ? "true" : "false");
  const std::string summary = std::string(head) + "\"configs\":" + configs +
                              ",\"verdict\":\"" + (ok ? "pass" : "fail") +
                              "\"}";

  const char* out_path = std::getenv("NETCO_SOAK_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_routing.json";
  bench::write_bench_file(out_path, summary);
  std::printf("\nRouting convergence matrix recorded in %s\n", out_path);

  std::printf("\nRouting convergence verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
