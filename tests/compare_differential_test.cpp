// Differential-testing layer for the sampled-verification fast path
// (§XII). Two anchors lock the mode down:
//
//  * sampling OFF is byte-for-byte the pre-§XII compare: short soaks must
//    reproduce golden stream hashes captured before the fast path
//    existed. A drift here means the refactor changed full-verification
//    behaviour, which it must not.
//
//  * sampling ON, benign traffic: the sampled run must deliver exactly
//    the same multiset of packets onto the same wires as the full-verify
//    run (order-independent egress_set_hash equality), with zero
//    duplicate egress — the fast path may change *when* a packet
//    releases, never *what* is released.
#include <gtest/gtest.h>

#include "golden_hashes.h"
#include "scenario/soak.h"

namespace netco::scenario {
namespace {

// Golden hashes of the tier-1 smoke configurations, captured before the
// sampled fast path landed. These pin "sampling off ⇒ no behaviour
// change" at the strongest granularity we have: every trace record in
// event order (golden_hashes.h).
constexpr golden::Hashes kGoldenK3Majority{.text = 0x185eeac979187253ULL,
                                           .stream = 0xd68c07e91afe969cULL};
constexpr golden::Hashes kGoldenK2FirstCopy{.text = 0x792f19c6d8bdabc4ULL,
                                            .stream = 0x3d33a18b588a4284ULL};
constexpr golden::Hashes kGoldenK3Health{.text = 0x3e1e67be7af87240ULL,
                                         .stream = 0x6246997580002c70ULL};
constexpr golden::Hashes kGoldenK5Benign{.text = 0xa5aa2967e409d7a7ULL,
                                         .stream = 0xf8bacab5eea73ef8ULL};

SoakOptions faulted_options(int k, core::ReleasePolicy policy,
                            std::uint64_t seed) {
  SoakOptions options;
  options.k = k;
  options.policy = policy;
  options.seed = seed;
  options.packets = 2500;
  return options;
}

/// Benign k=5 run: health loop on, no fault plan. The one configuration
/// where full and sampled verification must be observationally identical
/// on the wire. Its sampled golden pins the fast path's stream.
constexpr golden::Hashes kGoldenK5BenignSampled{
    .text = 0xf0ebca425680fa88ULL, .stream = 0x5eaad9ca7992af4eULL};
SoakOptions benign_options(bool sampled) {
  SoakOptions options;
  options.k = 5;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 500;
  options.packets = 2500;
  options.health.enabled = true;
  options.inject_default_faults = false;
  options.sampling.enabled = sampled;
  return options;
}

/// Sampled runs under the default fault plan with the health loop on. The
/// goldens pin the compare's sampled bookkeeping: these two runs reach
/// vote-slot capacity eviction, release-tombstone hits and full-cache
/// cleanup passes.
constexpr golden::Hashes kGoldenK3Sampled{.text = 0x7260c6b360514424ULL,
                                          .stream = 0x2c03c8f8b078a129ULL};
constexpr golden::Hashes kGoldenK5Sampled{.text = 0x3cc1396892e0d03fULL,
                                          .stream = 0x45fe5fc8674b8c76ULL};
SoakOptions sampled_faulted_options(int k, std::uint64_t seed) {
  SoakOptions options = faulted_options(k, core::ReleasePolicy::kMajority, seed);
  options.health.enabled = true;
  options.sampling.enabled = true;
  return options;
}

TEST(CompareDifferential, FullVerifyReproducesGoldenStreamHashes) {
  const SoakResult k3 =
      golden::run_golden(kGoldenK3Majority, "k3-majority full-verify", [] {
        return run_soak(
            faulted_options(3, core::ReleasePolicy::kMajority, 77));
      });
  EXPECT_TRUE(k3.ok());

  const SoakResult k2 =
      golden::run_golden(kGoldenK2FirstCopy, "k2-firstcopy full-verify", [] {
        return run_soak(
            faulted_options(2, core::ReleasePolicy::kFirstCopy, 101));
      });
  EXPECT_TRUE(k2.ok());

  SoakOptions health = faulted_options(3, core::ReleasePolicy::kMajority, 77);
  health.health.enabled = true;
  const SoakResult k3h =
      golden::run_golden(kGoldenK3Health, "k3-health full-verify",
                         [&] { return run_soak(health); });
  EXPECT_TRUE(k3h.ok());

  const SoakResult k5 =
      golden::run_golden(kGoldenK5Benign, "benign k5 full-verify",
                         [] { return run_soak(benign_options(false)); });
  EXPECT_TRUE(k5.ok());
}

TEST(CompareDifferential, SampledRunsReproduceGoldenStreamHashes) {
  const SoakResult k3 = golden::run_golden(kGoldenK3Sampled, "k3 sampled", [] {
    return run_soak(sampled_faulted_options(3, 77));
  });
  EXPECT_TRUE(k3.ok()) << "violations=" << k3.invariants.violations;

  const SoakResult k5 = golden::run_golden(kGoldenK5Sampled, "k5 sampled", [] {
    return run_soak(sampled_faulted_options(5, 78));
  });
  EXPECT_TRUE(k5.ok()) << "violations=" << k5.invariants.violations;
}

TEST(CompareDifferential, BenignSampledEgressSetMatchesFullVerify) {
  const SoakResult full = run_soak(benign_options(false));
  const SoakResult sampled = run_soak(benign_options(true));

  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sampled.ok()) << "violations="
                            << sampled.invariants.violations;

  // The differential anchor: identical egress packet sets on identical
  // wires, regardless of release timing.
  EXPECT_EQ(sampled.egress_set_hash, full.egress_set_hash);
  EXPECT_EQ(sampled.compare_released, full.compare_released);
  EXPECT_EQ(sampled.delivered_unique, full.delivered_unique);

  // The fast path actually engaged (this is not a vacuous comparison)...
  EXPECT_GT(sampled.fastpath_released, 0u);
  EXPECT_GT(sampled.sampled_escalated, 0u);
  // ...and the full-verify run never touched it.
  EXPECT_EQ(full.fastpath_released, 0u);
  EXPECT_EQ(full.sampled_escalated, 0u);

  // At-most-once egress: the fast path and the escalated full compare
  // never both release the same packet.
  EXPECT_EQ(sampled.duplicate_egress, 0u);
}

TEST(CompareDifferential, SampledRunIsBitReproducible) {
  const SoakResult a =
      golden::run_golden(kGoldenK5BenignSampled, "benign k5 sampled",
                         [] { return run_soak(benign_options(true)); });
  const SoakResult b = run_soak(benign_options(true));
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.egress_set_hash, b.egress_set_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.fastpath_released, b.fastpath_released);
  EXPECT_EQ(a.sampled_escalated, b.sampled_escalated);
}

TEST(CompareDifferential, ProtocolOnlyTraceKeepsInvariantsAndEgress) {
  // The bench's perf pair feeds the checker protocol records only; the
  // thinned stream must lose narration, never protocol coverage — same
  // egress set, same release count, invariants and the duplicate check
  // still armed.
  SoakOptions lean = benign_options(true);
  lean.protocol_trace_only = true;
  const SoakResult thin = run_soak(lean);
  const SoakResult full = run_soak(benign_options(true));

  ASSERT_TRUE(thin.ok()) << "violations=" << thin.invariants.violations;
  EXPECT_LT(thin.trace_records, full.trace_records);
  EXPECT_GT(thin.invariants.checks, 0u);
  EXPECT_EQ(thin.egress_set_hash, full.egress_set_hash);
  EXPECT_EQ(thin.compare_released, full.compare_released);
  EXPECT_EQ(thin.duplicate_egress, 0u);
}

TEST(CompareDifferential, PeriodOneEscalatesEverything) {
  // period=1 is the degenerate sampled mode: every packet is elected for
  // the full compare, so nothing ever releases on the fast path and the
  // wire still carries exactly the full-verify egress set.
  SoakOptions options = benign_options(true);
  options.sampling.period = 1;
  const SoakResult degenerate = run_soak(options);
  const SoakResult full = run_soak(benign_options(false));

  ASSERT_TRUE(degenerate.ok());
  EXPECT_EQ(degenerate.fastpath_released, 0u);
  EXPECT_EQ(degenerate.sampled_escalated, degenerate.compare_released);
  EXPECT_EQ(degenerate.egress_set_hash, full.egress_set_hash);
  EXPECT_EQ(degenerate.compare_released, full.compare_released);
}

}  // namespace
}  // namespace netco::scenario
