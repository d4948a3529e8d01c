// Shared helpers for the figure/table benchmark binaries.
//
// Every bench prints the paper's reference numbers next to the measured
// ones so the reproduction can be judged at a glance. Absolute values are
// not expected to match (the paper measured a Mininet testbed; we measure
// a calibrated simulator) — the scenario *ordering* and rough ratios are
// the reproduction target.
//
// Env knobs:
//   NETCO_BENCH_QUICK=1   — minimal runs (CI smoke)
//   NETCO_BENCH_FULL=1    — the paper's full methodology (10+10 × 10 s)
//   NETCO_TRACE_OUT=path  — enable the packet-lifecycle trace, JSONL to path
//   NETCO_METRICS_OUT=path — write the metrics snapshot there (default:
//                            one JSON line on stdout after the table)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/assert.h"
#include "obs/observability.h"
#include "scenario/scenarios.h"
#include "stats/table.h"

namespace netco::bench {

/// Methodology scale factors resolved from the environment.
struct BenchScale {
  int tcp_runs;                ///< per scenario
  sim::Duration tcp_per_run;
  sim::Duration udp_per_run;
  int ping_sequences;          ///< sequences of 50 cycles
  int udp_jitter_ms_runs;      ///< repetitions per packet size

  static BenchScale resolve() {
    if (std::getenv("NETCO_BENCH_QUICK") != nullptr) {
      return {2, sim::Duration::milliseconds(600),
              sim::Duration::milliseconds(300), 1, 1};
    }
    if (std::getenv("NETCO_BENCH_FULL") != nullptr) {
      // The paper: 10 runs each direction × 10 s; 3 × 50 ping cycles;
      // 5 jitter measurements per size.
      return {20, sim::Duration::seconds(10), sim::Duration::seconds(2), 3, 5};
    }
    return {6, sim::Duration::milliseconds(1100),
            sim::Duration::milliseconds(400), 3, 2};
  }
};

/// Prints the standard bench header.
inline void print_header(const char* figure, const char* caption) {
  std::printf("\n=== NetCo reproduction — %s ===\n%s\n\n", figure, caption);
}

/// Unsigned env knob with a fallback (empty counts as unset).
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

/// 16-digit hex rendering of a stream/egress hash.
inline std::string hash_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Writes a bench's summary object `doc` to `path` with a trailing newline
/// (stdout fallback when the file cannot be opened, so the data is never
/// silently lost). Each bench owns its summary file.
inline void write_bench_file(const char* path, const std::string& doc) {
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", doc.c_str());
    std::fclose(f);
  } else {
    std::printf("\n%s\n", doc.c_str());
  }
}

/// Per-bench observability session: installs the JSONL trace sink when
/// NETCO_TRACE_OUT names a file (tracing stays disabled otherwise) and
/// dumps the metrics registry as machine-readable JSON at the end.
///
/// Construct one right after print_header() and call dump_metrics() after
/// the table — every figure bench then produces a metrics dump next to its
/// human-readable output.
class ObsSession {
 public:
  ObsSession() : trace_sink_(obs::trace_sink_from_env()) {
    if (trace_sink_ != nullptr) {
      obs::global().tracer.set_sink(trace_sink_.get());
    }
  }

  ~ObsSession() {
    if (trace_sink_ != nullptr) obs::global().tracer.set_sink(nullptr);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Writes {"bench":<name>,"metrics":{...}} to NETCO_METRICS_OUT (one
  /// line, parseable JSON) or, when unset, to stdout. Short writes abort:
  /// a truncated metrics file would fail downstream JSON parsers with no
  /// hint that the disk filled up here.
  void dump_metrics(const char* bench_name) const {
    const std::string line = std::string("{\"bench\":\"") + bench_name +
                             "\",\"metrics\":" +
                             obs::global().metrics.to_json() + "}";
    if (const char* path = std::getenv("NETCO_METRICS_OUT");
        path != nullptr && *path != '\0') {
      if (std::FILE* f = std::fopen(path, "w")) {
        const bool wrote = std::fprintf(f, "%s\n", line.c_str()) ==
                           static_cast<int>(line.size()) + 1;
        const bool flushed = std::fflush(f) == 0;
        std::fclose(f);
        NETCO_ASSERT_MSG(wrote && flushed,
                         "metrics dump: short write (disk full?)");
        return;
      }
    }
    std::printf("\n%s\n", line.c_str());
  }

 private:
  std::unique_ptr<obs::JsonlFileSink> trace_sink_;
};

}  // namespace netco::bench
