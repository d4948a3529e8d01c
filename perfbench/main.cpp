// NetCo benchmark program.
//
//   netco_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--size tiny] [--spans-out <path>]
//
// Runs one workload (workloads.h) through the public scenario API and
// prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The exit status is nonzero when a correctness gate fails. See README.md
// for what each metric means and which layer moves which number.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "obs/observability.h"
#include "scenario/soak_circuit.h"
#include "scenario/workload.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using netco::scenario::ShardedSoakResult;
using netco::scenario::SoakCircuit;
using netco::scenario::SoakOptions;
using netco::scenario::SoakResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--size") {
      args.tiny = value == "tiny";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds >= 1;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double seconds_since(Clock::time_point start) {
  return static_cast<double>(ns_between(start, Clock::now())) / 1e9;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Reading a MetricsRegistry::to_json() snapshot. The format is fixed and
// flat: {"counters":{"name":n,…},"histograms":{"name":{"count":…,"p50":…}}}.

double json_number_after(const std::string& json, std::size_t from,
                         const std::string& key) {
  const std::size_t at = json.find(key, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

double counter_value(const std::string& metrics_json, const std::string& name) {
  const std::size_t histograms = metrics_json.find("\"histograms\":");
  const std::size_t at = metrics_json.find("\"" + name + "\":");
  if (at == std::string::npos || at > histograms) return 0.0;
  return json_number_after(metrics_json, at, "\"" + name + "\":");
}

double histogram_field(const std::string& metrics_json,
                       const std::string& name, const std::string& field) {
  const std::size_t histograms = metrics_json.find("\"histograms\":");
  if (histograms == std::string::npos) return 0.0;
  const std::size_t at = metrics_json.find("\"" + name + "\":{", histograms);
  if (at == std::string::npos) return 0.0;
  return json_number_after(metrics_json, at, "\"" + field + "\":");
}

// ---------------------------------------------------------------------------
// Set-up time.

/// Times one set-up round (WorkloadSpec::setup_round): the constructors
/// of the circuits it builds, not their teardown.
double time_setup_round(const WorkloadSpec& spec, int round) {
  double built_s = 0.0;
  for (const SoakOptions& options : spec.setup_round(round)) {
    const Clock::time_point start = Clock::now();
    auto circuit = std::make_unique<SoakCircuit>(options);
    built_s += seconds_since(start);
    circuit.reset();
  }
  return built_s;
}

/// Warm set-up samples, taken in batches spread over the run so that one
/// short noisy moment cannot decide their median.
struct SetupSamples {
  const WorkloadSpec* spec = nullptr;
  int batch = 0;
  std::vector<double> warm_s;

  void sample(int round) {
    for (int i = 0; i < batch; ++i) warm_s.push_back(time_setup_round(*spec, round));
  }
};

// ---------------------------------------------------------------------------
// Running a workload.

/// Everything a run produced that the gates and the metrics read.
struct RunOutcome {
  std::vector<SoakResult> circuits;
  /// Offered datagrams per wall second as the program measures it: the
  /// median circuit's SoakResult::wall_pps (single-circuit workloads) or
  /// ShardedSoakResult::wall_pps (fleet).
  double wall_pps = 0.0;
  double total_wall_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t events = 0;
  std::string metrics_json;
  std::uint64_t allocs = 0;  ///< counted allocations while circuits ran
  std::vector<std::string> errors;  ///< exceptions that stopped a lane
  // Fleet only.
  std::uint64_t merged_stream_hash = 0;
  std::uint64_t merged_egress_hash = 0;
  std::uint64_t shard_rounds = 0;
  std::uint64_t cross_shard_messages = 0;
  double cpu_s = 0.0;
};

/// What the traced run collects besides the outcome, per lane.
struct Probe {
  SpanLog spans;
  std::uint64_t checker_allocs = 0;  ///< allocations inside checker appends
  double wall_s = 0.0;               ///< the lane's whole run
};

/// Single-circuit workloads run their circuits on this many threads
/// ("lanes"), circuit i on lane i % kLanes. Each lane drives its circuits
/// one after another, window by window; lanes share nothing (every thread
/// has its own observability context), so each circuit's outcome is the
/// same as on one thread. Using every vCPU measures four times the work in
/// the same wall time and spreads it over all cores, which steadies the
/// medians on a noisy host. The fixed lane count keeps the merged metrics
/// snapshot (histogram float sums) identical from run to run.
constexpr std::size_t kLanes = 4;

struct Lane {
  std::vector<SoakResult> circuits;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  netco::obs::MetricsRegistry metrics;
  Probe probe;
  SetupSamples setup;
  std::string error;  ///< what stopped the lane early, if anything
};

/// Runs circuits lane, lane + kLanes, ... exactly as run_soak() does, then
/// a set-up batch after each. A traced lane also times every layer
/// boundary and installs TimedSink in front of the circuit's checker.
void run_lane(const std::vector<SoakOptions>& circuits, std::size_t lane,
              bool traced, Lane& out) {
  SpanLog* spans = traced ? &out.probe.spans : nullptr;
  const Clock::time_point lane_start = Clock::now();
  for (std::size_t i = lane; i < circuits.size(); i += kLanes) {
    const Clock::time_point built = Clock::now();
    auto circuit = std::make_unique<SoakCircuit>(circuits[i]);
    const Clock::time_point started = Clock::now();
    int root = -1;
    if (traced) {
      root = spans->add("scenario.circuit", -1, built, built, 0);
      spans->add("scenario.setup", root, built, started);
    }
    Clock::time_point finalized;
    {
      // As in run_soak(), the sink is installed only while the circuit
      // runs: it is gone before the circuit (and its checker) is destroyed.
      std::optional<TimedSink> timed;
      if (traced) timed.emplace(circuit->trace_sink());
      netco::obs::ScopedTraceSink scoped(
          timed ? static_cast<netco::obs::TraceSink&>(*timed)
                : circuit->trace_sink());
      const std::uint64_t allocs_before = thread_allocs();

      netco::sim::TimePoint cap = circuit->start();
      Clock::time_point mark = Clock::now();
      if (traced) spans->add("scenario.start", root, started, mark);
      while (cap != SoakCircuit::done_marker()) {
        const std::int64_t checker_ns = timed ? timed->ns() : 0;
        const std::uint64_t records = timed ? timed->records() : 0;
        circuit->simulator().run_until(cap);
        const Clock::time_point ran = Clock::now();
        cap = circuit->on_window(cap);
        const Clock::time_point audited = Clock::now();
        if (traced) {
          const int window = spans->add("sim.run_until", root, mark, ran);
          spans->add_aggregate("faultinject.checker", window,
                               timed->ns() - checker_ns,
                               timed->records() - records);
          spans->add("faultinject.on_window", root, ran, audited);
        }
        mark = audited;
      }
      out.allocs += thread_allocs() - allocs_before;

      circuit->finalize();
      finalized = Clock::now();
      if (traced) {
        spans->add("scenario.finalize", root, mark, finalized);
        out.probe.checker_allocs += timed->allocs();
      }
      out.events += circuit->simulator().events_executed();
      out.circuits.push_back(circuit->take_result());
    }
    circuit.reset();
    if (traced) {
      const Clock::time_point done = Clock::now();
      spans->add("scenario.teardown", root, finalized, done);
      spans->close(root, done);
    }
    if (out.setup.spec != nullptr) out.setup.sample(static_cast<int>(i));
  }
  out.probe.wall_s = seconds_since(lane_start);
  out.metrics.merge_from(netco::obs::global().metrics);
}

/// Runs every circuit on the lanes and merges what they produced in lane
/// order. With `setup` set, each lane takes set-up batches and hands them
/// back; with `probes` set, the run is traced and each lane's probe lands
/// there.
RunOutcome run_circuits(const std::vector<SoakOptions>& circuits,
                        SetupSamples* setup, std::vector<Probe>* probes) {
  const bool traced = probes != nullptr;
  std::vector<Lane> lanes(kLanes);
  if (setup != nullptr) {
    for (Lane& lane : lanes) lane.setup = {setup->spec, setup->batch, {}};
  }
  if (traced) set_alloc_counting(true);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      threads.emplace_back([&circuits, lane, traced, &lanes] {
        try {
          run_lane(circuits, lane, traced, lanes[lane]);
        } catch (const std::exception& e) {
          lanes[lane].error = e.what();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  RunOutcome out;
  out.total_wall_s = seconds_since(start);
  set_alloc_counting(false);

  netco::obs::MetricsRegistry merged;
  for (Lane& lane : lanes) {
    if (!lane.error.empty()) out.errors.push_back(std::move(lane.error));
    merged.merge_from(lane.metrics);
    out.events += lane.events;
    out.allocs += lane.allocs;
    if (setup != nullptr) {
      setup->warm_s.insert(setup->warm_s.end(), lane.setup.warm_s.begin(),
                           lane.setup.warm_s.end());
    }
    if (traced) probes->push_back(std::move(lane.probe));
  }
  out.metrics_json = merged.to_json();
  std::vector<double> pps;
  for (std::size_t i = 0; out.errors.empty() && i < circuits.size(); ++i) {
    out.circuits.push_back(lanes[i % kLanes].circuits[i / kLanes]);
    out.offered += out.circuits.back().datagrams_sent;
    pps.push_back(out.circuits.back().wall_pps);
  }
  out.wall_pps = median(std::move(pps));
  return out;
}

/// One run_workload_fleet() call. Percentiles and layer counts come from
/// the merged metrics_json, never from the per-circuit SoakResult fields:
/// finalize() reads the worker's thread-local registry, which every cell
/// pinned to that worker shares (see README.md, "Known bug").
RunOutcome run_fleet(const netco::scenario::ShardedSoakOptions& fleet,
                     bool count_allocs) {
  RunOutcome out;
  if (count_allocs) set_alloc_counting(true);
  const std::uint64_t allocs_before = total_allocs();
  const double cpu_before = process_cpu_seconds();
  ShardedSoakResult result = netco::scenario::run_workload_fleet(fleet);
  out.cpu_s = process_cpu_seconds() - cpu_before;
  out.allocs = total_allocs() - allocs_before;
  set_alloc_counting(false);

  out.wall_pps = result.wall_pps;
  out.total_wall_s = result.wall_seconds;
  out.offered = result.datagrams_sent;
  out.metrics_json = std::move(result.metrics_json);
  out.events = static_cast<std::uint64_t>(
      counter_value(out.metrics_json, "sim.events_executed"));
  out.merged_stream_hash = result.merged_stream_hash;
  out.merged_egress_hash = result.merged_egress_hash;
  out.shard_rounds = result.rounds;
  out.cross_shard_messages = result.cross_shard_messages;
  out.circuits = std::move(result.circuits);
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gates.

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  }
};

/// Per circuit: no invariant violation, never more deliveries than offers,
/// no session dropped on a full flow pool. Duplicate egress needs no gate
/// of its own: where it can happen (sampled verification, soak-k5-sampled)
/// the checker counts each duplicate as an invariant violation.
void gate_circuits(const WorkloadSpec& spec, const RunOutcome& run,
                   Verdict& verdict) {
  for (const std::string& error : run.errors) {
    ++verdict.attempted;
    verdict.fail(spec.name + ": " + error);
  }
  for (std::size_t i = 0; i < run.circuits.size(); ++i) {
    const SoakResult& r = run.circuits[i];
    ++verdict.attempted;
    const std::string where = spec.name + " circuit " + std::to_string(i);
    if (!r.ok()) {
      for (const std::string& detail : r.invariants.details) {
        std::fprintf(stderr, "  %s\n", detail.c_str());
      }
      verdict.fail(where + ": " + std::to_string(r.invariants.violations) +
                   " invariant violations");
    } else if (r.delivered_unique > r.datagrams_sent) {
      verdict.fail(where + ": delivered more than offered");
    } else if (r.wl_pool_exhausted > 0) {
      verdict.fail(where + ": " + std::to_string(r.wl_pool_exhausted) +
                   " sessions dropped on a full flow pool");
    } else if (r.datagrams_sent == 0) {
      verdict.fail(where + ": offered nothing");
    }
  }
}

/// The traced run must reproduce the untraced one: same hashes per
/// circuit and the same registry snapshot (every layer count).
void gate_reproduced(const RunOutcome& untraced, const RunOutcome& traced,
                     Verdict& verdict) {
  ++verdict.attempted;
  bool same = untraced.circuits.size() == traced.circuits.size() &&
              untraced.metrics_json == traced.metrics_json &&
              untraced.events == traced.events &&
              untraced.merged_stream_hash == traced.merged_stream_hash &&
              untraced.merged_egress_hash == traced.merged_egress_hash &&
              untraced.shard_rounds == traced.shard_rounds;
  for (std::size_t i = 0; same && i < untraced.circuits.size(); ++i) {
    same = untraced.circuits[i].stream_hash == traced.circuits[i].stream_hash &&
           untraced.circuits[i].egress_set_hash ==
               traced.circuits[i].egress_set_hash;
  }
  if (!same) verdict.fail("traced run did not reproduce the untraced run");
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// The table, then the result object as the last line.
  void print(const std::string& workload, const Verdict& verdict) const {
    std::printf("\n%s\n", workload.c_str());
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %20.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("  attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(verdict.attempted),
                static_cast<unsigned long long>(verdict.failed));
    std::string json = "{\"correct\":";
    json += verdict.failed == 0 ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(verdict.attempted);
    json += ",\"failed\":" + std::to_string(verdict.failed);
    json += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      json += (i == 0 ? "\"" : ",\"") + metrics_[i].name +
              "\":{\"value\":" + value + ",\"unit\":\"" + metrics_[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

void report_end_to_end(const RunOutcome& run, const SetupSamples& setup,
                       Report& report) {
  report.add("wall_pps", run.wall_pps, "1/s");
  report.add("setup_s", median(setup.warm_s), "s");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  // Per circuit, then averaged with equal weights: a few circuits whose
  // faults set off retransmit storms offer several times the datagrams of
  // the rest and would otherwise decide a pooled ratio on their own.
  double delivered_sum = 0.0;
  for (const SoakResult& r : run.circuits) {
    delivered_sum += ratio(static_cast<double>(r.delivered_unique),
                           static_cast<double>(r.datagrams_sent));
  }
  report.add("delivered_ratio",
             ratio(delivered_sum, static_cast<double>(run.circuits.size())),
             "ratio");
  const std::string verdicts = "compare.verdict_latency_us";
  report.add("verdict_p50_us", histogram_field(run.metrics_json, verdicts, "p50"),
             "sim_us");
  report.add("verdict_p99_us", histogram_field(run.metrics_json, verdicts, "p99"),
             "sim_us");
}

/// Layer metrics a run's registry snapshot and counts give directly.
void report_layer_counts(const RunOutcome& run, Report& report) {
  const std::string& m = run.metrics_json;
  const double offered = static_cast<double>(run.offered);
  const double released = counter_value(m, "compare.released");
  const double ingested = counter_value(m, "compare.ingested");
  report.add("sim.events_per_datagram",
             ratio(static_cast<double>(run.events), offered), "count");
  // The Fig. 3 hubs fan out through switch rules, not core::Hub nodes, so
  // the fan-out shows as the copies the compare ingests per datagram.
  report.add("netco.copies_per_datagram", ratio(ingested, offered), "count");
  report.add("netco.released_per_ingest", ratio(released, ingested), "ratio");
  report.add("netco.fastpath_share",
             ratio(counter_value(m, "compare.fastpath"), released), "ratio");
  report.add("netco.sampled_share",
             ratio(counter_value(m, "compare.sampled"), offered), "ratio");
  report.add("netco.verdicts",
             histogram_field(m, "compare.verdict_latency_us", "count"),
             "count");
  report.add("openflow.lookups_per_datagram",
             ratio(counter_value(m, "switch.table_hits") +
                       counter_value(m, "switch.table_misses"),
                   offered),
             "count");
  report.add("health.verdicts_per_datagram",
             ratio(counter_value(m, "health.verdicts"), offered), "count");
  report.add("health.quarantines", counter_value(m, "health.quarantines"),
             "count");
  report.add("workload.timers_per_datagram",
             ratio(counter_value(m, "workload.timer_scheduled"), offered),
             "count");
  report.add("workload.retransmit_share",
             ratio(counter_value(m, "workload.retransmit_packets"), offered),
             "ratio");
  report.add("workload.pool_peak_live",
             counter_value(m, "workload.pool_peak_live"), "count");
  report.add("workload.fct_p50_ms", histogram_field(m, "workload.fct_ms", "p50"),
             "sim_ms");
  report.add("workload.fct_p99_ms", histogram_field(m, "workload.fct_ms", "p99"),
             "sim_ms");
}

/// Layer metrics the spans and the counting allocator give, from a traced
/// single-circuit run.
void report_probe(const RunOutcome& traced, const std::vector<Probe>& probes,
                  Report& report) {
  std::uint64_t records = 0;
  std::uint64_t checks = 0;
  double window_wall_s = 0.0;
  for (std::size_t i = 0; i < traced.circuits.size(); ++i) {
    records += traced.circuits[i].trace_records;
    checks += traced.circuits[i].invariants.checks;
    window_wall_s += traced.circuits[i].wall_seconds;
  }
  const auto total_s = [&probes](const char* name) {
    std::int64_t ns = 0;
    for (const Probe& probe : probes) ns += probe.spans.total_ns(name);
    return static_cast<double>(ns) / 1e9;
  };
  std::uint64_t checker_allocs = 0;
  // Share of each lane's wall time its setup, window and finalize spans
  // cover; the worst lane is reported.
  double coverage = 1.0;
  for (const Probe& probe : probes) {
    checker_allocs += probe.checker_allocs;
    const SpanLog& spans = probe.spans;
    const double covered_ns = static_cast<double>(
        spans.total_ns("scenario.setup") + spans.total_ns("scenario.start") +
        spans.total_ns("sim.run_until") +
        spans.total_ns("faultinject.on_window") +
        spans.total_ns("scenario.finalize"));
    if (covered_ns > 0.0) {
      coverage = std::min(coverage, ratio(covered_ns / 1e9, probe.wall_s));
    }
  }
  const double checker_s = total_s("faultinject.checker");
  const double offered = static_cast<double>(traced.offered);
  report.add("faultinject.checker_share", ratio(checker_s, window_wall_s),
             "ratio");
  report.add("faultinject.checker_ns_per_record",
             ratio(checker_s * 1e9, static_cast<double>(records)), "ns");
  report.add("faultinject.checker_allocs_per_record",
             ratio(static_cast<double>(checker_allocs),
                   static_cast<double>(records)),
             "count");
  report.add("faultinject.records_per_datagram",
             ratio(static_cast<double>(records), offered), "count");
  report.add("faultinject.audit_s", total_s("faultinject.on_window"), "s");
  report.add("faultinject.invariant_checks", static_cast<double>(checks),
             "count");
  report.add("sim.self_ns_per_event",
             ratio((total_s("sim.run_until") - checker_s) * 1e9,
                   static_cast<double>(traced.events)),
             "ns");
  report.add("alloc.checker_share",
             ratio(static_cast<double>(checker_allocs),
                   static_cast<double>(traced.allocs)),
             "ratio");
  report.add("scenario.finalize_s", total_s("scenario.finalize"), "s");
  report.add("trace.span_coverage", coverage, "ratio");
}

bool write_spans(const std::string& path, const std::vector<Probe>& probes) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = true;
  for (std::size_t lane = 0; lane < probes.size(); ++lane) {
    ok = probes[lane].spans.write_jsonl(file, lane) && ok;
  }
  return std::fclose(file) == 0 && ok;
}

int run(const Args& args) {
  // A traced run executes its inputs twice (untraced, then traced), so it
  // runs a third of the work: the per-layer figures are per-datagram and
  // per-record ratios, which do not depend on the run's length.
  const int seconds = args.trace ? std::max(1, args.seconds / 3) : args.seconds;
  const std::optional<WorkloadSpec> spec =
      make_workload(args.workload, args.seed, seconds, args.tiny);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Verdict verdict;
  Report report;
  // The process's first build is the cold one, before anything else runs.
  const double setup_cold_s = time_setup_round(*spec, 0);
  SetupSamples setup{&*spec, spec->setup_batch, {}};

  if (!args.trace) {
    RunOutcome run;
    if (spec->fleet) {
      setup.sample(0);
      run = run_fleet(*spec->fleet, false);
      setup.sample(0);
    } else {
      run = run_circuits(spec->circuits, &setup, nullptr);
    }
    gate_circuits(*spec, run, verdict);
    report_end_to_end(run, setup, report);
  } else {
    // Untraced reference, then the same inputs traced.
    std::vector<Probe> probes;
    RunOutcome untraced;
    RunOutcome traced;
    const RunOutcome* probed = &traced;  // where spans and checker figures are
    RunOutcome circuit0;
    if (spec->fleet) {
      untraced = run_fleet(*spec->fleet, false);
      traced = run_fleet(*spec->fleet, true);
      // The fleet's checkers live inside run_sharded_soak, out of reach of
      // a sink wrapper; circuit 0 driven alone on this thread stands in
      // for the per-circuit spans. Per-circuit streams are independent of
      // the sharding, so it must reproduce the fleet's circuit 0.
      circuit0 = run_circuits({spec->fleet->base}, nullptr, &probes);
      probed = &circuit0;
      ++verdict.attempted;
      if (traced.circuits.empty() ||
          circuit0.circuits.front().stream_hash !=
              traced.circuits.front().stream_hash) {
        verdict.fail("circuit 0 alone did not reproduce the fleet's circuit 0");
      }
    } else {
      untraced = run_circuits(spec->circuits, nullptr, nullptr);
      traced = run_circuits(spec->circuits, nullptr, &probes);
    }
    gate_circuits(*spec, untraced, verdict);
    gate_circuits(*spec, traced, verdict);
    gate_reproduced(untraced, traced, verdict);

    report_layer_counts(traced, report);
    report_probe(*probed, probes, report);
    report.add("alloc.per_datagram",
               ratio(static_cast<double>(traced.allocs),
                     static_cast<double>(traced.offered)),
               "count");
    report.add("sim.shard_busy_share",
               spec->fleet ? ratio(traced.cpu_s,
                                   traced.total_wall_s * spec->fleet->shards)
                           : 0.0,
               "ratio");
    report.add("sim.shard_rounds", static_cast<double>(traced.shard_rounds),
               "count");
    report.add("sim.cross_shard_messages",
               static_cast<double>(traced.cross_shard_messages), "count");
    report.add("scenario.setup_cold_s", setup_cold_s, "s");
    report.add("trace.overhead_ratio",
               ratio(traced.total_wall_s, untraced.total_wall_s), "ratio");
    if (!args.spans_out.empty() && !write_spans(args.spans_out, probes)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans_out.c_str());
    }
  }
  report.print(spec->name, verdict);
  return verdict.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size tiny] [--spans-out <path>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
