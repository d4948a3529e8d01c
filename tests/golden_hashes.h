// Golden runs, pinned twice.
//
// A golden run pins its QuorumTraceChecker::stream_hash() and, as an
// oracle that does not depend on how the checker folds records, the
// FNV-1a of the run's JSONL trace text: the bytes a NETCO_TRACE_OUT file
// of the run would hold. run_golden() installs a JsonlHashSink around the
// run (the circuit runner tees every record to it) and checks both.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "common/hash.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace netco::golden {

/// A golden run's two hashes.
struct Hashes {
  std::uint64_t text;    ///< FNV-1a of the run's JSONL trace
  std::uint64_t stream;  ///< the run's checker stream_hash()
};

/// FNV-1a over obs::to_json(record) + '\n' of every record appended.
class JsonlHashSink final : public obs::TraceSink {
 public:
  void append(const obs::TraceRecord& record) override {
    const std::string line = obs::to_json(record) + '\n';
    hash_ = fnv1a(std::as_bytes(std::span(line.data(), line.size())), hash_);
  }

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

/// Calls `run` (a harness run returning a result with a stream_hash) with
/// a JsonlHashSink installed, checks both hashes against `golden`, and
/// returns the result.
template <class Run>
auto run_golden(const Hashes& golden, const char* what, Run&& run) {
  JsonlHashSink text;
  auto result = [&] {
    obs::ScopedTraceSink scoped(text);
    return run();
  }();
  EXPECT_EQ(text.hash(), golden.text)
      << what << ": the JSONL trace drifted from its golden";
  EXPECT_EQ(result.stream_hash, golden.stream)
      << what << ": the checker's stream hash drifted from its golden";
  return result;
}

}  // namespace netco::golden
