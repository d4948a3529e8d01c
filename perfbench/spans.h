// Spans for the traced run: kept in memory, written as JSONL at exit.
//
// Each span has a name, a start and a duration (ns since the log was
// created), the index of the span that contains it, and a count. Per-
// record checker calls are far too many to log one by one, so TimedSink
// folds them into one aggregate span per simulator window: its duration
// is the summed time of that window's appends and its count the records.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Span {
  const char* name;
  int parent;  ///< index into the log, -1 for a root
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t count;
};

class SpanLog {
 public:
  /// Records a finished span; returns its index.
  int add(const char* name, int parent, Clock::time_point start,
          Clock::time_point end, std::uint64_t count = 1) {
    spans_.push_back(Span{name, parent, ns_between(epoch_, start),
                          ns_between(start, end), count});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Sets the end of a span recorded earlier (a parent added before its
  /// children).
  void close(int index, Clock::time_point end) {
    Span& span = spans_.at(static_cast<std::size_t>(index));
    span.dur_ns = ns_between(epoch_, end) - span.start_ns;
  }

  /// Records an aggregate child (no interval of its own: it starts with
  /// its parent and lasts the summed duration).
  void add_aggregate(const char* name, int parent, std::int64_t dur_ns,
                     std::uint64_t count) {
    spans_.push_back(Span{name, parent,
                          spans_.at(static_cast<std::size_t>(parent)).start_ns,
                          dur_ns, count});
  }

  /// Summed duration (ns) and count of every span with this name.
  [[nodiscard]] std::int64_t total_ns(const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& s : spans_) {
      if (name == s.name) total += s.dur_ns;
    }
    return total;
  }

  /// Writes one JSON object per span, tagged with the lane that ran it.
  bool write_jsonl(std::FILE* file, std::size_t lane) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (std::fprintf(file,
                       "{\"lane\":%zu,\"id\":%zu,\"name\":\"%s\","
                       "\"parent\":%d,\"start_ns\":%lld,\"dur_ns\":%lld,"
                       "\"count\":%llu}\n",
                       lane, i, s.name, s.parent,
                       static_cast<long long>(s.start_ns),
                       static_cast<long long>(s.dur_ns),
                       static_cast<unsigned long long>(s.count)) < 0) {
        return false;
      }
    }
    return true;
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Pass-through sink installed in place of circuit.trace_sink(): times
/// every append and counts the allocations made inside it.
class TimedSink final : public netco::obs::TraceSink {
 public:
  explicit TimedSink(netco::obs::TraceSink& downstream)
      : downstream_(downstream) {}

  void append(const netco::obs::TraceRecord& record) override {
    const std::uint64_t allocs_before = thread_allocs();
    const Clock::time_point start = Clock::now();
    downstream_.append(record);
    ns_ += ns_between(start, Clock::now());
    allocs_ += thread_allocs() - allocs_before;
    ++records_;
  }

  [[nodiscard]] std::int64_t ns() const noexcept { return ns_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t allocs() const noexcept { return allocs_; }

 private:
  netco::obs::TraceSink& downstream_;
  std::int64_t ns_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace perfbench
