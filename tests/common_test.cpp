// Unit tests for src/common: RNG, formatting, hashing, units.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/fmt.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/units.h"

namespace netco {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_i64(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit in 1000 draws
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(17);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceProbabilityApproximatelyHonored) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.25, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent.next_u64() == child.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Fmt, SubstitutesInOrder) {
  EXPECT_EQ(fmt("a={} b={}", 1, "two"), "a=1 b=two");
}

TEST(Fmt, SurplusPlaceholdersPrintLiterally) {
  EXPECT_EQ(fmt("x={} y={}", 5), "x=5 y={}");
}

TEST(Fmt, SurplusArgumentsIgnored) {
  EXPECT_EQ(fmt("x={}", 5, 6, 7), "x=5");
}

TEST(Fmt, NoPlaceholders) { EXPECT_EQ(fmt("plain"), "plain"); }

TEST(Hash, Fnv1aEmptyIsOffset) {
  EXPECT_EQ(fnv1a({}), kFnvOffset);
}

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a("a") = 0xAF63DC4C8601EC8C
  const std::byte a[] = {std::byte{'a'}};
  EXPECT_EQ(fnv1a(a), 0xAF63DC4C8601EC8CULL);
}

TEST(Hash, DifferentInputsDifferentHashes) {
  const std::byte a[] = {std::byte{1}, std::byte{2}};
  const std::byte b[] = {std::byte{2}, std::byte{1}};
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(Units, DataRateConversions) {
  EXPECT_EQ(DataRate::megabits_per_sec(100).bps(), 100'000'000u);
  EXPECT_EQ(DataRate::gigabits_per_sec(1).bps(), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(DataRate::kilobits_per_sec(1500).mbps(), 1.5);
  EXPECT_FALSE(DataRate{}.positive());
  EXPECT_TRUE(DataRate::bits_per_sec(1).positive());
}

}  // namespace
}  // namespace netco
