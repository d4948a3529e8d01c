// Unit tests for the trusted-component resilience primitives:
//
//  * CompareCore::restore() brings back every field a snapshot holds, and
//    rebuilds state conservatively — restored unreleased entries are
//    tainted so their later quorums are suppressed (at-most-once egress
//    costs bounded gap loss, never a duplicate);
//  * shadow mode (the warm standby) reaches quorums without emitting, and
//    promotion can never re-emit an entry the shadow already judged.
#include <gtest/gtest.h>

#include <vector>

#include "net/headers.h"
#include "netco/compare_core.h"

namespace netco::resilience {
namespace {

net::Packet numbered_packet(std::uint32_t n) {
  std::vector<std::byte> data(64, std::byte{0});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                          .src = net::MacAddress::from_id(1)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                      .dst = net::Ipv4Address::from_id(2),
                      .identification = static_cast<std::uint16_t>(n)},
      net::UdpHeader{.src_port = static_cast<std::uint16_t>(n >> 16),
                     .dst_port = 5001},
      data);
}

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::milliseconds(ms);
}

/// A core with deliberately varied state: a released entry, a pending
/// 2-vote entry, a singleton, and a quarantined replica.
core::CompareCore populated_core() {
  core::CompareCore core(core::CompareConfig{.k = 5});
  const auto released = numbered_packet(1);
  core.ingest(0, released, at_ms(1));
  core.ingest(1, released, at_ms(1));
  core.ingest(2, released, at_ms(2));  // quorum of 5 → released
  const auto pending = numbered_packet(2);
  core.ingest(0, pending, at_ms(3));
  core.ingest(3, pending, at_ms(4));  // 2 of 5: still held
  core.ingest(4, numbered_packet(3), at_ms(5));  // singleton
  core.set_replica_live(2, false, at_ms(6));
  return core;
}

// --- restore semantics -----------------------------------------------------

TEST(Restore, SnapshotOfRestoredCoreMatchesCheckpoint) {
  // A history that moves every snapshot field away from its default, so
  // a field restore() forgets shows up as a mismatch below.
  core::CompareCore primary(core::CompareConfig{
      .k = 5, .rate_limit_packets = 2, .inactivity_threshold = 1});
  const auto swept = numbered_packet(1);
  for (int r : {0, 1, 2, 4}) primary.ingest(r, swept, at_ms(1));
  // Released without replica 3; the sweep finalizes it, and replica 3's
  // first miss reaches the inactivity threshold.
  primary.sweep(at_ms(25));
  primary.set_replica_live(1, false, at_ms(26));
  primary.set_replica_live(1, true, at_ms(27));  // its live-since mark
  primary.set_replica_live(2, false, at_ms(28));
  // Replica 4's third arrival within the rate window flags it for a block;
  // its two singletons stay pending.
  primary.ingest(4, numbered_packet(2), at_ms(30));
  primary.ingest(4, numbered_packet(3), at_ms(31));
  const auto released = numbered_packet(4);
  for (int r : {0, 1, 4}) primary.ingest(r, released, at_ms(32));

  const core::CompareSnapshot snap = primary.snapshot();
  EXPECT_EQ(snap.live_count, 4);
  EXPECT_EQ(snap.live_since[1], at_ms(27));
  EXPECT_EQ(snap.missed_streak[3], 1u);
  EXPECT_TRUE(snap.flagged_inactive[3]);
  EXPECT_TRUE(snap.flagged_block[4]);
  ASSERT_EQ(snap.entries.size(), 3u);  // the swept release is gone
  EXPECT_TRUE(snap.entries.back().released);

  core::CompareCore restarted(primary.config());
  restarted.restore(snap, at_ms(33));

  core::CompareSnapshot expected = snap;
  for (core::SnapshotEntry& entry : expected.entries) {
    if (!entry.released) entry.recovered = true;
  }
  EXPECT_EQ(restarted.snapshot(), expected);
}

TEST(Restore, RebuildsStateConservatively) {
  core::CompareCore primary = populated_core();
  const core::CompareSnapshot snap = primary.snapshot();

  core::CompareCore restarted(primary.config());
  restarted.restore(snap, at_ms(10));

  // The books balance: the audit recomputes quota counters and the age
  // list from scratch and must agree with the restored bookkeeping.
  const core::SlotAudit audit =
      restarted.audit().of(core::SlotKind::kEntry);
  EXPECT_TRUE(audit.consistent());
  EXPECT_TRUE(audit.age_ordered);
  EXPECT_EQ(audit.size, snap.entries.size());
  EXPECT_EQ(audit.quota_counts, audit.quota_held);

  // Counters and the live set carry over: replica 2 was quarantined at
  // checkpoint time and must still be out after the warm restart.
  EXPECT_EQ(restarted.stats().released, primary.stats().released);
  EXPECT_FALSE(restarted.replica_live(2));
  EXPECT_EQ(restarted.live_count(), primary.live_count());
}

TEST(Restore, RecoveredEntryQuorumIsSuppressed) {
  // A 1-vote entry at checkpoint time may or may not have been released
  // between the checkpoint and the crash. After restore, its quorum must
  // complete *silently*: no emission, counted as suppressed_recovered.
  core::CompareCore primary(core::CompareConfig{.k = 3});
  const auto p = numbered_packet(9);
  EXPECT_FALSE(primary.ingest(0, p, at_ms(0)).has_value());
  const core::CompareSnapshot snap = primary.snapshot();

  core::CompareCore restarted(primary.config());
  restarted.restore(snap, at_ms(2));
  // Second vote completes the quorum — but the entry is tainted.
  EXPECT_FALSE(restarted.ingest(1, p, at_ms(3)).has_value());
  EXPECT_EQ(restarted.stats().suppressed_recovered, 1u);
  EXPECT_EQ(restarted.stats().released, 0u);
  // Third copy is late-after-release bookkeeping, not a second chance.
  EXPECT_FALSE(restarted.ingest(2, p, at_ms(4)).has_value());
  EXPECT_EQ(restarted.stats().late_after_release, 1u);
  EXPECT_EQ(restarted.stats().suppressed_recovered, 1u);
}

TEST(Restore, ReleasedEntryNeverReleasesAgain) {
  // An entry already released at checkpoint time stays released: the late
  // third copy after restore is ignored, not re-emitted.
  core::CompareCore primary(core::CompareConfig{.k = 3});
  const auto p = numbered_packet(11);
  primary.ingest(0, p, at_ms(0));
  EXPECT_TRUE(primary.ingest(1, p, at_ms(0)).has_value());
  const core::CompareSnapshot snap = primary.snapshot();

  core::CompareCore restarted(primary.config());
  restarted.restore(snap, at_ms(2));
  EXPECT_FALSE(restarted.ingest(2, p, at_ms(3)).has_value());
  EXPECT_EQ(restarted.stats().late_after_release, 1u);
  EXPECT_EQ(restarted.stats().suppressed_recovered, 0u);
  EXPECT_EQ(restarted.stats().released, 1u);  // carried over, not repeated
}

TEST(Restore, FreshTrafficAfterRestoreReleasesNormally) {
  // The taint applies to restored entries only: packets first seen after
  // the restart release exactly as on a cold core.
  core::CompareCore primary(core::CompareConfig{.k = 3});
  primary.ingest(0, numbered_packet(1), at_ms(0));
  const core::CompareSnapshot snap = primary.snapshot();

  core::CompareCore restarted(primary.config());
  restarted.restore(snap, at_ms(2));
  const auto fresh = numbered_packet(2);
  EXPECT_FALSE(restarted.ingest(0, fresh, at_ms(3)).has_value());
  EXPECT_TRUE(restarted.ingest(1, fresh, at_ms(3)).has_value());
  EXPECT_EQ(restarted.stats().released, 1u);
}

TEST(Restore, DiscardsPreRestoreState) {
  // restore() is a full replacement, not a merge: entries the core held
  // before the restore are gone afterwards, so a packet pending pre-crash
  // but absent from the checkpoint needs a full fresh quorum.
  core::CompareCore core(core::CompareConfig{.k = 3});
  const core::CompareSnapshot empty = core.snapshot();

  const auto p = numbered_packet(21);
  core.ingest(0, p, at_ms(1));
  core.ingest(1, p, at_ms(1));  // released pre-restore
  core.restore(empty, at_ms(2));

  EXPECT_EQ(core.audit().of(core::SlotKind::kEntry).size, 0u);
  EXPECT_EQ(core.stats().released, 0u);  // snapshot's counters rule
  // Rebuilding the quorum from live traffic releases again: the entry is
  // new (not recovered), so this is the normal path, not a duplicate of a
  // tracked release.
  EXPECT_FALSE(core.ingest(0, p, at_ms(3)).has_value());
  EXPECT_TRUE(core.ingest(1, p, at_ms(3)).has_value());
}

// --- shadow (standby) mode -------------------------------------------------

TEST(Shadow, WithholdsEveryRelease) {
  core::CompareCore core(core::CompareConfig{.k = 3});
  core.set_shadow(true);
  const auto p = numbered_packet(31);
  EXPECT_FALSE(core.ingest(0, p, at_ms(0)).has_value());
  EXPECT_FALSE(core.ingest(1, p, at_ms(0)).has_value());  // quorum, withheld
  EXPECT_EQ(core.stats().shadow_releases, 1u);
  EXPECT_EQ(core.stats().released, 0u);
  EXPECT_FALSE(core.ingest(2, p, at_ms(1)).has_value());
  EXPECT_EQ(core.stats().late_after_release, 1u);
}

TEST(Shadow, PromotionDoesNotReemitShadowJudgedEntries) {
  core::CompareCore core(core::CompareConfig{.k = 3});
  core.set_shadow(true);
  const auto old_p = numbered_packet(41);
  core.ingest(0, old_p, at_ms(0));
  core.ingest(1, old_p, at_ms(0));  // shadow quorum: primary owned this one

  core.set_shadow(false);  // promotion
  // The straggler third copy of the pre-promotion packet must not leak
  // out — the primary (or nobody) released it; re-emitting would be the
  // split-brain duplicate.
  EXPECT_FALSE(core.ingest(2, old_p, at_ms(1)).has_value());
  EXPECT_EQ(core.stats().released, 0u);

  // Post-promotion packets release normally.
  const auto new_p = numbered_packet(42);
  EXPECT_FALSE(core.ingest(0, new_p, at_ms(2)).has_value());
  EXPECT_TRUE(core.ingest(1, new_p, at_ms(2)).has_value());
  EXPECT_EQ(core.stats().released, 1u);
}

TEST(Shadow, FirstCopyPolicyAlsoWithheld) {
  // The immediate-release path (kFirstCopy / new-entry release) goes
  // through the same suppression gate.
  core::CompareCore core(core::CompareConfig{
      .k = 2, .policy = core::ReleasePolicy::kFirstCopy});
  core.set_shadow(true);
  EXPECT_FALSE(core.ingest(0, numbered_packet(51), at_ms(0)).has_value());
  EXPECT_EQ(core.stats().shadow_releases, 1u);
  EXPECT_EQ(core.stats().released, 0u);
}

}  // namespace
}  // namespace netco::resilience
