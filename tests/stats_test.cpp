// Tests for the stats helpers (summary statistics, table printer) and the
// metrics histogram quantile estimator.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace netco::stats {
namespace {

TEST(Summary, EmptyInputAllZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summary, SingleSample) {
  const auto s = summarize({7.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.mean, 7.0);
  EXPECT_EQ(s.min, 7.0);
  EXPECT_EQ(s.max, 7.0);
  EXPECT_EQ(s.p50, 7.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summary, KnownValues) {
  // n = 5, hand-computed: mean 3; sample variance Σ(x−3)²/(n−1) = 10/4.
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.mean, 3.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  // p95 rank = 0.95·4 = 3.8 → between 4 and 5, 80% of the way.
  EXPECT_NEAR(s.p95, 4.8, 1e-12);
}

TEST(Summary, TwoSamples) {
  // n = 2, hand-computed: mean 2; sample variance (1+1)/1 = 2; the median
  // interpolates halfway between the two order statistics.
  const auto s = summarize({3.0, 1.0});
  EXPECT_EQ(s.n, 2u);
  EXPECT_EQ(s.mean, 2.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(s.p50, 2.0, 1e-12);
  // p95 rank = 0.95·1 = 0.95 → 1 + 0.95·(3−1).
  EXPECT_NEAR(s.p95, 2.9, 1e-12);
}

TEST(Summary, PercentileInterpolatesBetweenRanks) {
  // {10, 20, 30, 40}: p50 rank = 0.5·3 = 1.5 → midway between 20 and 30.
  const auto s = summarize({40.0, 10.0, 30.0, 20.0});
  EXPECT_NEAR(s.p50, 25.0, 1e-12);
  // Quantile endpoints are exact order statistics.
  std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  EXPECT_EQ(sorted_quantile(sorted, 0.0), 10.0);
  EXPECT_EQ(sorted_quantile(sorted, 1.0), 40.0);
}

TEST(Summary, UnsortedInputHandled) {
  const auto s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.p50, 3.0);
}

TEST(Summary, PercentilesMonotone) {
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) samples.push_back(static_cast<double>(i));
  const auto s = summarize(samples);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.max);
  EXPECT_NEAR(s.p50, 50.0, 1.0);
  EXPECT_NEAR(s.p95, 95.0, 1.0);
}

// --- obs::Histogram quantiles ------------------------------------------------

TEST(HistogramQuantile, EmptyIsZero) {
  obs::Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesWithinObservedRange) {
  obs::Histogram h({100.0});
  h.observe(10.0);
  h.observe(20.0);
  h.observe(30.0);
  h.observe(40.0);
  // All samples in bucket [min=10, bound=100] clamped to max=40; every
  // quantile stays inside the observed range.
  EXPECT_GE(h.quantile(0.0), 10.0);
  EXPECT_LE(h.quantile(1.0), 40.0);
  EXPECT_GT(h.quantile(0.9), h.quantile(0.1));
}

TEST(HistogramQuantile, MassSplitAcrossBuckets) {
  obs::Histogram h({10.0, 20.0});
  // 10 samples ≤ 10, 10 samples in (10, 20] → p50 lands at the boundary
  // between the two buckets, p95 deep inside the second.
  for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
  for (int i = 11; i <= 20; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1.0);
  EXPECT_GT(h.quantile(0.95), 15.0);
  EXPECT_LE(h.quantile(0.95), 20.0);
  EXPECT_LE(h.quantile(1.0), h.max());
  // Monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
}

TEST(HistogramQuantile, OverflowBucketClampsToMax) {
  obs::Histogram h({10.0});
  h.observe(5.0);
  h.observe(1000.0);  // overflow bucket
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);
  EXPECT_GE(h.quantile(0.99), 5.0);
}

TEST(HistogramQuantile, SummaryStatsTrackObservations) {
  obs::Histogram h(obs::default_latency_buckets_us());
  h.observe(3.0);
  h.observe(7.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 10.0);
  EXPECT_EQ(h.min(), 3.0);
  EXPECT_EQ(h.max(), 7.0);
  EXPECT_EQ(h.mean(), 5.0);
}

TEST(MetricsRegistry, StableAddressesAndCanonicalJson) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("b.second");
  obs::Counter& b = registry.counter("a.first");
  a.inc(2);
  b.inc(1);
  // Same name → same instrument.
  EXPECT_EQ(&registry.counter("b.second"), &a);
  // Keys render sorted regardless of registration order.
  const auto json = registry.to_json();
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b.second\":2"), std::string::npos);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"short", "1"});
  table.add_row({"a-much-longer-name", "22"});
  const auto text = table.render();
  EXPECT_NE(text.find("| name "), std::string::npos);
  EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|---"), std::string::npos);
  // Every row starts with the delimiter.
  EXPECT_EQ(text.front(), '|');
}

TEST(Table, MissingCellsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"x"});
  const auto text = table.render();
  // Renders without crashing; the row has all three delimiters.
  int pipes = 0;
  const auto last_line_start = text.rfind("| x");
  for (std::size_t i = last_line_start; i < text.size(); ++i)
    if (text[i] == '|') ++pipes;
  EXPECT_EQ(pipes, 4);  // leading + 3 columns' trailing
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::num(1234.5, 1), "1234.5");
}

}  // namespace
}  // namespace netco::stats
