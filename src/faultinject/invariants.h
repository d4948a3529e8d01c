// Online invariant checking for fault-injection soaks.
//
// Two complementary checkers:
//
//  * check_audit() validates a CompareCore::audit() snapshot — the cache's
//    incremental bookkeeping (per-replica singleton quotas, age list,
//    capacity bound) against ground truth recomputed from the cache. This
//    is what catches slow accounting drift (the quota-leak class of bug)
//    that no end-to-end assertion would notice until the quota saturates.
//
//  * QuorumTraceChecker validates the *protocol* from the trace stream:
//    every compare.release must be preceded by ingests from a strict
//    majority of the live replicas (or at least one in kFirstCopy
//    detection mode).
//    It sits in the trace path as a TraceSink and folds every record's
//    fixed binary fields into a stream hash — the determinism fingerprint
//    the soak compares across same-seed runs without buffering or
//    rendering millions of records.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/hash.h"
#include "netco/compare_core.h"
#include "obs/trace.h"

namespace netco::faultinject {

/// Accumulated verdict of one or more checkers.
struct InvariantReport {
  std::uint64_t checks = 0;      ///< individual assertions evaluated
  std::uint64_t violations = 0;  ///< assertions that failed
  /// Human-readable description of the first violations (capped so a
  /// pathological run cannot eat memory).
  std::vector<std::string> details;

  [[nodiscard]] bool ok() const noexcept { return violations == 0; }

  /// Records one failed assertion.
  void note(std::string detail);

  /// Folds another report into this one.
  void merge(const InvariantReport& other);
};

/// Checks a compare store self-audit, per slot kind: the size counter,
/// age list and index agree, ages are ordered, occupancy respects the
/// capacity bound, quota counters match the quota holders recounted
/// from slot state; and live plus free slots fill the arena. `where`
/// labels violations ("netco-e0@t=...").
void check_audit(const core::CompareAudit& audit, const std::string& where,
                 InvariantReport& report);

/// Trace-stream protocol checker (see file comment).
class QuorumTraceChecker final : public obs::TraceSink {
 public:
  struct Config {
    /// kFirstCopy detection mode: a release needs only one vote.
    bool first_copy = false;
    /// Replica count (>= 1). The checker tracks health.quarantine /
    /// health.readmit / health.ban records from the stream and applies
    /// CompareCore's adaptive quorum: votes from quarantined replicas
    /// don't count, the requirement is a strict majority over the live
    /// set, and a live set of ≤ 2 falls back to first-copy mode. The
    /// default's majority of 3 is 2 votes.
    int k = 3;
    /// At-most-once egress check (resilience soaks): a second release of
    /// the same packet id for the same edge within 50 ms is a violation.
    /// Egress is grouped by the component's suffix after '/'
    /// — "compare/netco-e0" and "standby/netco-e0" feed the same wire, so
    /// a primary release followed by a standby re-release of the same
    /// packet is exactly the split-brain duplicate this hunts. Off by
    /// default: a workload may legitimately repeat identical datagrams
    /// (same content hash) on a longer timescale.
    bool check_duplicates = false;
    /// Audit failover.reroute records with the same duplicate-window
    /// machinery, keyed per emitting switch: the same packet id rerouted
    /// twice at the same switch inside the window means a detour loop
    /// (the VID hop budget should make that impossible — each rewrite
    /// changes the content hash, so only a genuine same-state revisit
    /// trips this). Requires check_duplicates.
    bool audit_reroutes = false;
  };

  explicit QuorumTraceChecker(Config config) : config_(config) {
    NETCO_ASSERT(config.k >= 1);
  }

  void append(const obs::TraceRecord& record) override;

  [[nodiscard]] const InvariantReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::uint64_t records_seen() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t releases() const noexcept { return releases_; }

  /// Duplicate egress events found (0 unless check_duplicates).
  [[nodiscard]] std::uint64_t duplicates() const noexcept {
    return duplicates_;
  }

  /// failover.reroute records seen (static backup layer detours).
  [[nodiscard]] std::uint64_t reroutes() const noexcept { return reroutes_; }

  /// hash_mix fold, in stream order, of every record's at_ns, event,
  /// packet_id, replica and bytes at full width and its component name's
  /// FNV-1a (never its interning id, so the hash is the same in every
  /// thread and process). Equal hashes across two runs mean identical
  /// record streams, hence byte-identical JSONL traces.
  [[nodiscard]] std::uint64_t stream_hash() const noexcept { return hash_; }

  /// Order-independent digest of every egress event: a wrapping sum of
  /// hash_mix(packet_id, fnv1a(egress group)) over both release kinds
  /// (compare.release and compare.fastpath). Two runs that delivered the
  /// same multiset of packets onto the same wires agree on this hash even
  /// when the *timing* (and hence the stream hash) differs — the
  /// differential-testing anchor for sampled vs full verification.
  [[nodiscard]] std::uint64_t egress_set_hash() const noexcept {
    return egress_hash_;
  }

 private:
  Config config_;
  InvariantReport report_;
  std::uint64_t records_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t hash_ = kFnvOffset;
  std::uint64_t egress_hash_ = 0;
  /// Bit per replica currently quarantined or banned.
  std::uint64_t quarantined_mask_ = 0;
  /// (component id, packet id) → replica vote bitmask. Entries die with
  /// their cache entry (release verdict, eviction, or expiry), so the map
  /// is bounded by the compare caches' live size.
  struct VoteKey {
    std::uint32_t component;
    std::uint64_t packet;
    bool operator==(const VoteKey&) const noexcept = default;
  };
  struct VoteKeyHash {
    std::size_t operator()(const VoteKey& key) const noexcept {
      return hash_mix(key.packet, key.component);
    }
  };
  std::unordered_map<VoteKey, std::uint64_t, VoteKeyHash> votes_;
  /// Egress groups (component suffix after '/') as dense ids with their
  /// name-FNV precomputed, indexed by component id: release records are
  /// the hot path of a sampled soak.
  struct EgressGroup {
    std::size_t id = 0;
    std::uint64_t name_fnv = 0;
  };
  [[nodiscard]] EgressGroup egress_group(obs::ComponentName component);
  /// The duplicate-window check shared by egress and reroute records: a
  /// second record of the record's packet id in its group within the
  /// window is a violation, described by `what` ("duplicate egress of",
  /// "reroute loop on").
  void check_repeat(const obs::TraceRecord& record, EgressGroup group,
                    const char* what);
  std::vector<std::optional<EgressGroup>> group_by_component_;
  std::unordered_map<std::string, EgressGroup> group_by_suffix_;
  /// Duplicate-egress tracking (check_duplicates mode): per egress group,
  /// packet id → last release time, plus a pruning log so the maps stay
  /// bounded by the window's release volume.
  std::uint64_t duplicates_ = 0;
  std::uint64_t reroutes_ = 0;
  std::vector<std::unordered_map<std::uint64_t, std::int64_t>> last_release_;
  std::deque<std::tuple<std::int64_t, std::size_t, std::uint64_t>>
      release_log_;
};

}  // namespace netco::faultinject
