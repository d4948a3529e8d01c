// Golden-trace determinism tests.
//
// The simulator executes same-instant events in scheduling order (the
// Simulator tie-break contract in src/sim/simulator.h), which makes every
// run bit-reproducible for a given seed. These tests lock that contract in
// at the observability layer: the *serialized trace stream* of a full
// figure-3 scenario run must be byte-identical across same-seed runs, and
// must diverge across different seeds (the per-packet CPU/latency jitter
// models all draw from the seeded RNG). Any future change that makes event
// ordering depend on unordered containers, pointer values, or wall-clock
// time breaks these tests immediately.
#include <gtest/gtest.h>

#include <string>

#include "obs/observability.h"
#include "scenario/scenarios.h"

namespace netco {
namespace {

/// Runs the figure-3 Central3 ping scenario under a ring-buffer trace sink
/// and returns the serialized (JSONL) trace stream.
std::string run_traced_ping(std::uint64_t seed) {
  obs::RingBufferSink sink(1 << 20);
  obs::ScopedTraceSink guard(sink);
  const auto report = scenario::measure_ping(
      scenario::ScenarioKind::kCentral3, /*count=*/5,
      sim::Duration::milliseconds(5), seed);
  EXPECT_GT(report.received, 0) << "scenario produced no traffic to trace";
  return sink.serialize();
}

TEST(GoldenTrace, SameSeedProducesByteIdenticalStreams) {
  const std::string first = run_traced_ping(7);
  const std::string second = run_traced_ping(7);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(GoldenTrace, StreamContainsTheFullLifecycle) {
  const std::string stream = run_traced_ping(7);
  // The combiner pipeline shows up end to end: replica forwards feeding
  // compare ingests that end in majority releases.
  EXPECT_NE(stream.find("\"ev\":\"replica.forward\""), std::string::npos);
  EXPECT_NE(stream.find("\"ev\":\"compare.ingest\""), std::string::npos);
  EXPECT_NE(stream.find("\"ev\":\"compare.release\""), std::string::npos);
  // Per-edge compare labels disambiguate the two trusted edges.
  EXPECT_NE(stream.find("\"src\":\"compare/netco-e0\""), std::string::npos);
}

TEST(GoldenTrace, DifferentSeedsDiverge) {
  // Host/controller/control-channel jitter all derive from the seed, so
  // two seeds must not produce the same stream. (If this ever fails, the
  // seed stopped reaching the component RNG splits.)
  EXPECT_NE(run_traced_ping(7), run_traced_ping(8));
}

TEST(GoldenTrace, DisabledTracerEmitsNothing) {
  obs::RingBufferSink sink;
  {
    obs::ScopedTraceSink guard(sink);
  }  // sink uninstalled again
  const auto report = scenario::measure_ping(
      scenario::ScenarioKind::kCentral3, /*count=*/2,
      sim::Duration::milliseconds(5), 3);
  EXPECT_GT(report.received, 0);
  EXPECT_EQ(sink.total_appended(), 0u);
}

// A trace path that cannot be opened must not silently discard the whole
// stream (NETCO_TRACE_OUT pointing into a missing directory).
TEST(JsonlFileSinkDeathTest, UnopenablePathAborts) {
  EXPECT_DEATH(obs::JsonlFileSink("/nonexistent-dir/trace.jsonl"),
               "cannot open /nonexistent-dir/trace.jsonl");
}

}  // namespace
}  // namespace netco
