// Unit tests for the trusted-component resilience primitives:
//
//  * the checkpoint text codec round-trips byte-exactly and rejects torn
//    or corrupted input (a half-written checkpoint must never restore);
//  * CompareCore::restore() rebuilds state conservatively — restored
//    unreleased entries are tainted so their later quorums are suppressed
//    (at-most-once egress costs bounded gap loss, never a duplicate);
//  * shadow mode (the warm standby) reaches quorums without emitting, and
//    promotion can never re-emit an entry the shadow already judged.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "net/headers.h"
#include "netco/compare_core.h"
#include "resilience/checkpoint.h"

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
/// 2-vote entry, a singleton, and a quarantined replica — every branch of
/// the codec gets exercised.
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

// --- checkpoint codec ------------------------------------------------------

TEST(Checkpoint, RoundTripIsByteExact) {
  core::CompareCore core = populated_core();
  const core::CompareSnapshot snap = core.snapshot(at_ms(7));
  const std::string text = serialize_snapshot(snap);

  const auto parsed = parse_snapshot(text);
  ASSERT_TRUE(parsed.has_value());
  // Serializing the parse must reproduce the original text bit for bit —
  // writer and parser cannot skew without this test failing.
  EXPECT_EQ(serialize_snapshot(*parsed), text);

  EXPECT_EQ(parsed->at_ns, snap.at_ns);
  EXPECT_EQ(parsed->live_mask, snap.live_mask);
  EXPECT_EQ(parsed->live_count, snap.live_count);
  EXPECT_EQ(parsed->stats.released, snap.stats.released);
  EXPECT_EQ(parsed->stats.ingested, snap.stats.ingested);
  ASSERT_EQ(parsed->entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].key, snap.entries[i].key);
    EXPECT_EQ(parsed->entries[i].replica_mask, snap.entries[i].replica_mask);
    EXPECT_EQ(parsed->entries[i].released, snap.entries[i].released);
    EXPECT_EQ(parsed->entries[i].payload, snap.entries[i].payload);
    EXPECT_EQ(parsed->entries[i].first_seen_ns,
              snap.entries[i].first_seen_ns);
  }
}

TEST(Checkpoint, EmptyCoreRoundTrips) {
  core::CompareCore core(core::CompareConfig{.k = 3});
  const std::string text = serialize_snapshot(core.snapshot(at_ms(0)));
  const auto parsed = parse_snapshot(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->entries.empty());
  EXPECT_EQ(serialize_snapshot(*parsed), text);
}

TEST(Checkpoint, TornCheckpointRejected) {
  core::CompareCore core = populated_core();
  const std::string text = serialize_snapshot(core.snapshot(at_ms(7)));

  // A checkpoint truncated at any line boundary must refuse to parse:
  // the trailing "end" marker is the commit record.
  std::size_t pos = text.find('\n');
  while (pos != std::string::npos && pos + 1 < text.size()) {
    EXPECT_FALSE(parse_snapshot(text.substr(0, pos + 1)).has_value())
        << "torn at byte " << pos;
    pos = text.find('\n', pos + 1);
  }
  // Mid-line tears too.
  EXPECT_FALSE(parse_snapshot(text.substr(0, text.size() / 2)).has_value());
  EXPECT_FALSE(parse_snapshot("").has_value());
}

TEST(Checkpoint, CorruptedPayloadRejected) {
  core::CompareCore core = populated_core();
  std::string text = serialize_snapshot(core.snapshot(at_ms(7)));

  // Wrong magic.
  std::string bad = text;
  bad[0] = 'X';
  EXPECT_FALSE(parse_snapshot(bad).has_value());

  // Odd-length / non-hex payload on an entry line.
  const std::size_t e = text.find("\ne ");
  ASSERT_NE(e, std::string::npos);
  const std::size_t eol = text.find('\n', e + 1);
  bad = text;
  bad.insert(eol, "f");  // odd hex digit count
  EXPECT_FALSE(parse_snapshot(bad).has_value());
  bad = text;
  bad[eol - 1] = 'z';  // not a hex digit
  EXPECT_FALSE(parse_snapshot(bad).has_value());
}

TEST(Checkpoint, SampledCountersRoundTrip) {
  // The §XII fast-path counters ride the stats line (fields 15-17).
  core::CompareSnapshot snap = populated_core().snapshot(at_ms(7));
  snap.stats.fastpath_ingested = 41;
  snap.stats.fastpath_released = 29;
  snap.stats.sampled_escalated = 3;

  const std::string text = serialize_snapshot(snap);
  const auto parsed = parse_snapshot(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stats.fastpath_ingested, 41u);
  EXPECT_EQ(parsed->stats.fastpath_released, 29u);
  EXPECT_EQ(parsed->stats.sampled_escalated, 3u);
  EXPECT_EQ(serialize_snapshot(*parsed), text);
}

TEST(Checkpoint, LegacyFourteenFieldStatsLineParses) {
  // A v1 checkpoint written before the fast-path counters existed carries
  // a 14-field stats line; it must restore with the new counters at zero.
  core::CompareSnapshot snap = populated_core().snapshot(at_ms(7));
  snap.stats.fastpath_ingested = 41;
  snap.stats.fastpath_released = 29;
  snap.stats.sampled_escalated = 3;
  std::string text = serialize_snapshot(snap);

  const std::size_t begin = text.find("\nstats ");
  ASSERT_NE(begin, std::string::npos);
  std::size_t end = text.find('\n', begin + 1);
  ASSERT_NE(end, std::string::npos);
  // Drop the last three space-separated fields of the stats line.
  for (int i = 0; i < 3; ++i) {
    end = text.rfind(' ', end - 1);
    ASSERT_NE(end, std::string::npos);
    ASSERT_GT(end, begin);
  }
  const std::string legacy =
      text.substr(0, end) + text.substr(text.find('\n', end));

  const auto parsed = parse_snapshot(legacy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stats.ingested, snap.stats.ingested);
  EXPECT_EQ(parsed->stats.released, snap.stats.released);
  EXPECT_EQ(parsed->stats.fastpath_ingested, 0u);
  EXPECT_EQ(parsed->stats.fastpath_released, 0u);
  EXPECT_EQ(parsed->stats.sampled_escalated, 0u);
}

TEST(Checkpoint, TornStatsLineRejectedWhole) {
  // A stats line torn mid-record — 15 or 16 fields, or trailing garbage —
  // is neither the legacy 14-field nor the full 17-field shape: the whole
  // checkpoint must refuse to parse, never restore half a counter block.
  core::CompareSnapshot snap = populated_core().snapshot(at_ms(7));
  snap.stats.fastpath_ingested = 41;
  snap.stats.fastpath_released = 29;
  snap.stats.sampled_escalated = 3;
  const std::string text = serialize_snapshot(snap);

  const std::size_t begin = text.find("\nstats ");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t eol = text.find('\n', begin + 1);
  ASSERT_NE(eol, std::string::npos);

  std::size_t cut = eol;
  for (int dropped = 1; dropped <= 2; ++dropped) {
    cut = text.rfind(' ', cut - 1);
    ASSERT_NE(cut, std::string::npos);
    const std::string torn = text.substr(0, cut) + text.substr(eol);
    EXPECT_FALSE(parse_snapshot(torn).has_value())
        << "stats line with " << (17 - dropped) << " fields parsed";
  }

  std::string garbled = text;
  garbled[eol - 1] = 'x';  // last counter becomes non-numeric
  EXPECT_FALSE(parse_snapshot(garbled).has_value());
}

TEST(Checkpoint, MutationFuzzNeverCrashesAndStaysConsistent) {
  // Random byte mutations, truncations and line splices over a valid
  // checkpoint: the parser must never crash, and whenever it does accept
  // an input, re-serializing the result must itself parse (the writer and
  // parser stay closed under each other — the property the per-shard
  // snapshot merge leans on).
  core::CompareSnapshot snap = populated_core().snapshot(at_ms(7));
  snap.stats.fastpath_ingested = 41;
  snap.stats.sampled_escalated = 3;
  const std::string text = serialize_snapshot(snap);
  Rng rng(0xC0DEC);

  for (int i = 0; i < 2000; ++i) {
    std::string mutated = text;
    switch (rng.uniform_u64(3)) {
      case 0: {  // flip 1-4 bytes to arbitrary values
        const int flips = 1 + static_cast<int>(rng.uniform_u64(4));
        for (int f = 0; f < flips; ++f) {
          mutated[rng.uniform_u64(mutated.size())] =
              static_cast<char>(rng.uniform_u64(256));
        }
        break;
      }
      case 1:  // torn write: truncate at an arbitrary byte
        mutated.resize(rng.uniform_u64(mutated.size()));
        break;
      default: {  // splice: duplicate one line over another
        const std::size_t a = rng.uniform_u64(mutated.size());
        const std::size_t from = mutated.rfind('\n', a);
        const std::size_t to = mutated.find('\n', a);
        if (to != std::string::npos) {
          const std::size_t begin = from == std::string::npos ? 0 : from + 1;
          mutated.insert(begin, mutated.substr(begin, to - begin + 1));
        }
        break;
      }
    }
    const auto parsed = parse_snapshot(mutated);
    if (parsed.has_value()) {
      EXPECT_TRUE(parse_snapshot(serialize_snapshot(*parsed)).has_value())
          << "accepted input re-serialized into a rejected checkpoint";
    }
  }
}

// --- restore semantics -----------------------------------------------------

TEST(Restore, RebuildsStateConservatively) {
  core::CompareCore primary = populated_core();
  const core::CompareSnapshot snap = primary.snapshot(at_ms(7));

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
  const core::CompareSnapshot snap = primary.snapshot(at_ms(1));

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
  const core::CompareSnapshot snap = primary.snapshot(at_ms(1));

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
  const core::CompareSnapshot snap = primary.snapshot(at_ms(1));

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
  const core::CompareSnapshot empty = core.snapshot(at_ms(0));

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
