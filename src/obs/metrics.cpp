#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.h"

namespace netco::obs {
namespace {

/// Renders a double compactly and deterministically: integers without a
/// decimal point, everything else with up to 12 significant digits.
std::string render_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  NETCO_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                   "histogram bucket bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto next = cumulative + counts_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within bucket i between its lower and upper edge.
      const double lower = i == 0 ? min_ : std::max(min_, bounds_[i - 1]);
      const double upper = i < bounds_.size() ? std::min(max_, bounds_[i])
                                              : max_;
      const double into =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts_[i]);
      return std::clamp(lower + (upper - lower) * into, min_, max_);
    }
    cumulative = next;
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  NETCO_ASSERT_MSG(bounds_ == other.bounds_,
                   "cannot merge histograms with different bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::vector<double> default_latency_buckets_us() {
  std::vector<double> out;
  for (double decade = 1.0; decade <= 1e4; decade *= 10.0) {
    out.push_back(decade);
    out.push_back(decade * 2.0);
    out.push_back(decade * 5.0);
  }
  out.push_back(1e5);  // 100 ms
  return out;
}

std::vector<double> default_queue_depth_buckets() {
  std::vector<double> out;
  for (double b = 64.0; b <= 1'048'576.0; b *= 4.0) out.push_back(b);
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.lower_bound(name);
  if (it == counters_.end() || it->first != name) {
    it = counters_.emplace_hint(it, name, std::make_unique<Counter>());
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  auto it = histograms_.lower_bound(name);
  if (it == histograms_.end() || it->first != name) {
    if (upper_bounds.empty()) upper_bounds = default_latency_buckets_us();
    it = histograms_.emplace_hint(
        it, name, std::make_unique<Histogram>(std::move(upper_bounds)));
  }
  return *it->second;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, ctr] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(ctr->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"count\":";
    out += std::to_string(hist->count());
    out += ",\"sum\":";
    out += render_number(hist->sum());
    out += ",\"min\":";
    out += render_number(hist->min());
    out += ",\"max\":";
    out += render_number(hist->max());
    out += ",\"p50\":";
    out += render_number(hist->quantile(0.50));
    out += ",\"p95\":";
    out += render_number(hist->quantile(0.95));
    out += ",\"p99\":";
    out += render_number(hist->quantile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, ctr] : other.counters_) {
    counter(name).inc(ctr->value());
  }
  for (const auto& [name, hist] : other.histograms_) {
    histogram(name, hist->bounds()).merge_from(*hist);
  }
}

}  // namespace netco::obs
