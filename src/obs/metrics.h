// MetricsRegistry: named counters and fixed-bucket histograms shared by
// every component (ROADMAP observability layer).
//
// Components look their instruments up once (construction time) and keep
// the returned reference — instruments have stable addresses for the
// lifetime of the registry. Values are never reset: a run that needs a
// snapshot of its own gets a registry of its own (scenario/circuit.h). The
// registry is single-threaded like the simulator itself.
//
// to_json() renders a canonical snapshot (keys sorted, fixed number
// formatting) so benches can dump machine-readable metrics next to their
// tables and tests can diff snapshots textually.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace netco::obs {

/// A monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram (cumulative-style buckets, like Prometheus).
///
/// `upper_bounds` are the inclusive upper edges of the finite buckets, in
/// ascending order; an implicit +inf bucket catches the rest. quantile()
/// interpolates linearly inside the containing bucket, clamped to the
/// observed [min, max] so it never extrapolates past real samples.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Estimated q-quantile (q in [0, 1]); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

  /// Folds another histogram's samples into this one. Both must share the
  /// same bucket bounds (asserted). Counts/sums add; min/max widen. Used
  /// to aggregate per-circuit registries after a fleet run.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Default bucket edges for microsecond-scale latencies (1-2-5 decades,
/// 1 µs … 100 ms).
[[nodiscard]] std::vector<double> default_latency_buckets_us();

/// Default bucket edges for queue depths in bytes (powers of four up to
/// ~1 MiB).
[[nodiscard]] std::vector<double> default_queue_depth_buckets();

/// The registry: name → instrument, stable addresses, canonical export.
class MetricsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  Counter& counter(std::string_view name);

  /// Returns the histogram registered under `name`, creating it with
  /// `upper_bounds` (or the default latency buckets when empty) on first
  /// use. Later calls ignore `upper_bounds`.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds = {});

  /// Canonical JSON object: {"counters":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

  /// Folds another registry into this one: counters add by name,
  /// histograms merge by name (creating missing instruments with the
  /// source's bounds). A fleet merges its per-circuit registries in
  /// circuit order, so the merged snapshot, histogram float sums included,
  /// is the same for every shard count.
  void merge_from(const MetricsRegistry& other);

 private:
  // std::map: sorted iteration makes to_json() canonical; unique_ptr keeps
  // instrument addresses stable across rehash-free inserts. std::less<>
  // looks a name up without building a std::string from it.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace netco::obs
