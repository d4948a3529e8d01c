// CompareCore: the trusted *compare* element of the robust network
// combiner — the heart of NetCo (§III–IV of the paper).
//
// The compare receives, from each of k redundant untrusted routers, the
// packets those routers forwarded, and releases exactly one copy of a
// packet once a strict majority (> floor(k/2)) of routers delivered it.
// Packets that never reach a majority (fabricated, rerouted-in, modified,
// or flooded by a malicious minority) are held for a bounded time and then
// evicted without ever being released.
//
// This class is pure logic: no I/O, no event loop. Deployment wrappers
// (CompareService for the out-of-band "C program"/POX variants, the
// virtualized inband variant) feed it (replica, packet, now) triples.
//
// Paper behaviours implemented here:
//  * bit-by-bit comparison (memcmp) — or header-only / hashed modes;
//  * majority release, exactly once; late copies of a released packet are
//    ignored; the entry dies once all k replicas reported (or timed out);
//  * case 1 (§IV): a packet seen on one ingress only is buffered, timed
//    out, and deleted — never forwarded;
//  * case 2 (§IV): repeated copies on one ingress are flagged; a per-port
//    rate monitor produces "block this port" advice (DoS containment);
//  * case 3 (§IV): consecutive releases missing a given ingress raise an
//    unavailability alarm for the network administrator;
//  * bounded waiting time (hold_timeout) so the compare itself cannot be
//    memory-DoSed, plus per-replica buffer quotas ("logically isolated
//    buffers") and a global capacity with a cleanup procedure whose cost
//    the caller can model (the jitter mechanism of §V-B).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "netco/compare_store.h"
#include "netco/verdict.h"
#include "obs/observability.h"
#include "sim/time.h"

namespace netco::core {

/// How two packets are compared for identity.
enum class CompareMode : std::uint8_t {
  kFullPacket,  ///< bit-by-bit memcmp over the whole frame (paper default)
  kHeaderOnly,  ///< first header_prefix bytes only (L2–L4 headers)
  kHashed,      ///< 64-bit content hash only (cheapest; collision-trusting)
};

/// When a packet is released.
enum class ReleasePolicy : std::uint8_t {
  kMajority,   ///< prevention: strict majority of k (k ≥ 3)
  kFirstCopy,  ///< detection only: release the first copy immediately and
               ///< alarm on disagreement/timeout (k = 2 suffices)
};

/// Sampled-verification mode (§XII): only 1-in-period packets take the
/// full k-way compare; the rest ride a fast path that releases on the
/// first copy from a healthy-weighted replica (or once the weighted tally
/// crosses half the live weight). The period is adaptive: it collapses to
/// 1 — full verification for every packet — the moment any live replica's
/// health weight degrades below the healthy bar (0.75), a replica is
/// flagged, or the core was just restored from a checkpoint. Strictly
/// opt-in: with enabled == false the core is bit-identical to one built
/// before the subsystem existed.
struct CompareSampling {
  bool enabled = false;
  /// 1-in-period packets are escalated to the full compare while every
  /// live replica is healthy. 1 = sample everything (full verify).
  std::uint32_t period = 16;
  /// Per-replica singleton quota of the vote slots (same isolation as the
  /// entries' per_replica_quota). Their capacity is cache_capacity.
  std::size_t vote_quota = 1024;
};

/// CPU cost billed per entry evicted in a cleanup pass (cold scan + free
/// in the prototype's C cache), by the out-of-band CompareService and the
/// inband CompareMiddlebox alike.
inline constexpr sim::Duration kCleanupCostPerEntry =
    sim::Duration::nanoseconds(800);

/// Compare element configuration.
struct CompareConfig {
  int k = 3;  ///< number of redundant routers (replicas)
  CompareMode mode = CompareMode::kFullPacket;
  ReleasePolicy policy = ReleasePolicy::kMajority;
  /// Bytes compared in kHeaderOnly mode (Ethernet+VLAN+IPv4+L4 ≈ 58).
  std::size_t header_prefix = 58;
  /// Maximum time a packet waits for its majority before eviction. The
  /// paper: "a function of the latencies of all the connected devices".
  sim::Duration hold_timeout = sim::Duration::milliseconds(20);
  /// Global cache capacity in entries; exceeding it triggers a cleanup
  /// pass (oldest-first eviction down to the low-water mark). It bounds
  /// the fast path's vote slots too.
  std::size_t cache_capacity = 2048;
  /// Cleanup evicts down to this fraction of capacity.
  double cleanup_low_water = 0.9;
  /// Per-replica quota of "singleton" entries (entries only that replica
  /// has contributed to). Overflow evicts that replica's oldest singleton —
  /// the paper's logically-isolated buffers.
  std::size_t per_replica_quota = 512;
  /// Port-flood detection, signal 1: more than this many packets from one
  /// replica within rate_window flags the replica for blocking.
  std::uint64_t rate_limit_packets = 50'000;
  /// Port-flood detection, signal 2 (§IV case 2): more than this much
  /// *garbage* from one replica within rate_window — same-port duplicates
  /// plus singleton packets that died without ever reaching a quorum —
  /// flags it for blocking. Garbage is the sharper signal: a saturated
  /// compare CPU caps the arrival rate it can observe, but garbage is
  /// attributable misbehaviour regardless of load.
  std::uint64_t garbage_limit_packets = 1'000;
  sim::Duration rate_window = sim::Duration::milliseconds(100);
  /// Consecutive finalized packets missing a replica before the
  /// unavailability alarm fires.
  std::uint64_t inactivity_threshold = 50;
  /// Mask applied to every cache key. ~0 (default) keeps the full 64-bit
  /// hash; narrowing it models a memory-constrained key space and makes
  /// distinct packets share a key (tests use this to forge deterministic
  /// collisions).
  std::uint64_t key_mask = ~0ULL;
  /// Sampled-verification fast path (disabled by default).
  CompareSampling sampling{};

  /// Strict majority for the configured k.
  [[nodiscard]] int quorum() const noexcept { return k / 2 + 1; }
};

/// Counters.
struct CompareStats {
  std::uint64_t ingested = 0;
  std::uint64_t released = 0;
  std::uint64_t late_after_release = 0;   ///< copies arriving post-release
  std::uint64_t duplicates_same_port = 0; ///< same replica, same packet
  std::uint64_t evicted_timeout = 0;      ///< minority entries timed out
  std::uint64_t evicted_capacity = 0;     ///< cleanup-pass victims
  std::uint64_t evicted_quota = 0;        ///< per-replica isolation victims
  std::uint64_t cleanup_passes = 0;
  std::uint64_t mismatch_detected = 0;    ///< kFirstCopy disagreements
  std::uint64_t rejected_replica = 0;     ///< ingests with replica ∉ [0,k)
  /// Quorums reached in shadow mode (standby): the release was withheld.
  std::uint64_t shadow_releases = 0;
  /// Quorums reached on checkpoint-restored entries: the release was
  /// withheld because the entry may already have been released pre-crash.
  std::uint64_t suppressed_recovered = 0;
  /// Sampled-verification mode (zero while sampling is disabled).
  std::uint64_t fastpath_ingested = 0;  ///< copies that took the fast path
  std::uint64_t fastpath_released = 0;  ///< fast-path releases (⊂ released)
  std::uint64_t sampled_escalated = 0;  ///< packets elected for full verify
  std::size_t cache_entries = 0;          ///< current occupancy
  std::size_t max_cache_entries = 0;
};

/// One full-verify entry, externalized for checkpointing (src/resilience).
/// The exemplar travels as raw wire bytes; everything else mirrors the
/// entry slot.
struct SnapshotEntry {
  std::uint64_t key = 0;
  std::vector<std::byte> payload;
  std::uint64_t replica_mask = 0;
  int first_replica = 0;
  bool holds_singleton_slot = false;
  bool released = false;
  bool recovered = false;
  std::int64_t first_seen_ns = 0;
};

/// Serializable compare state: everything a warm restart needs to resume
/// conservatively — cache entries in age order, counters, the live set
/// with its `live_since` causality marks, and the case-2/3 monitor state.
/// The per-replica rate windows are deliberately NOT captured: replaying
/// them after a crash would re-accuse replicas for pre-crash traffic.
struct CompareSnapshot {
  std::int64_t at_ns = 0;  ///< when the snapshot was taken
  CompareStats stats;
  std::uint64_t live_mask = 0;
  int live_count = 0;
  std::vector<std::int64_t> live_since_ns;
  std::vector<std::uint64_t> missed_streak;
  std::vector<bool> flagged_block;
  std::vector<bool> flagged_inactive;
  std::vector<SnapshotEntry> entries;  ///< oldest first (age order)
};

/// Outcome of one fast-path ingest (see CompareCore::ingest_sampled).
struct FastResult {
  /// The packet is elected for the full k-way compare: the caller must
  /// route this copy through the normal packet-in path (ingest()).
  bool escalated = false;
  /// Fast-path egress: at most one copy per packet, ever.
  std::optional<net::Packet> released;
};

/// Events the deployment layer should act on.
struct CompareAdvice {
  /// Replicas the rate monitor wants blocked (port indices into [0,k)).
  std::vector<int> block_replicas;
  /// Replicas declared unavailable (inactivity alarm).
  std::vector<int> inactive_replicas;
};

/// The pure compare logic.
class CompareCore {
 public:
  explicit CompareCore(CompareConfig config);

  /// Feeds one packet received from `replica` (0-based) at time `now`.
  /// Returns the packet to release downstream, if this arrival completed a
  /// quorum (or, under kFirstCopy, if it is the first copy). A replica
  /// index outside [0, k) is rejected (counted in stats().rejected_replica)
  /// instead of corrupting the vote bitmask.
  std::optional<net::Packet> ingest(int replica, net::Packet packet,
                                    sim::TimePoint now);

  // --- sampled-verification fast path (§XII) ----------------------------

  /// Fast-path ingest: consults the packet's vote slot instead of the
  /// full compare. Three outcomes: the copy is *escalated* (its packet is
  /// elected for full verification, or already has a full-verify entry —
  /// the caller punts it through the normal ingest() path), it *votes*
  /// (its replica's health weight joins the packet's tally; the first
  /// copy from a healthy live replica — or the copy that pushes the tally
  /// past half the live weight — releases), or it is late/duplicate noise
  /// (counted and traced exactly like the full path). The decision is
  /// memoized per packet key, so every copy of one packet takes the same
  /// route even if the adaptive period moves mid-flight.
  FastResult ingest_sampled(int replica, const net::Packet& packet,
                            sim::TimePoint now);

  /// Health-weight import: weight 1 = pristine, 0 = dead. Pushed by the
  /// health service after every verdict batch (1 - EWMA score). Without a
  /// health loop all weights stay 1.0 and the fast path releases on any
  /// first live copy.
  void set_replica_weight(int replica, double weight) noexcept;
  [[nodiscard]] double replica_weight(int replica) const noexcept;

  /// The sampling period currently in force: config().sampling.period
  /// while every live replica is healthy and unflagged, 1 (full
  /// verification) the moment anything degrades — or right after a
  /// checkpoint restore, until one hold_timeout of live traffic passes.
  [[nodiscard]] std::uint32_t effective_period(sim::TimePoint now) const
      noexcept;

  /// The packet store: full-verify entries, vote slots and tombstones.
  [[nodiscard]] const CompareStore& store() const noexcept { return store_; }

  /// Evicts entries and vote slots whose hold time expired, then expired
  /// tombstones. Call periodically (the deployment wrappers do). Returns
  /// the number of entries and vote slots evicted.
  std::size_t sweep(sim::TimePoint now);

  /// Entries the last ingest()/sweep() cleaned up in a capacity pass —
  /// deployment layers convert this into modelled CPU stall time.
  [[nodiscard]] std::size_t last_cleanup_work() const noexcept {
    return last_cleanup_work_;
  }

  /// Pending advice (block/inactivity); cleared by the call.
  CompareAdvice take_advice();

  /// Counters.
  [[nodiscard]] const CompareStats& stats() const noexcept { return stats_; }

  /// The configuration in force.
  [[nodiscard]] const CompareConfig& config() const noexcept { return config_; }

  /// Recomputes the store's bookkeeping from scratch (O(arena)) so an
  /// external checker can compare it against the incremental counters.
  [[nodiscard]] CompareAudit audit() const;

  /// Fault/pressure injection: rebinds the cache capacity mid-run. A
  /// squeeze below the current occupancy triggers an immediate cleanup
  /// pass (billable via last_cleanup_work(), like any other pass), and
  /// then evicts vote slots down to the new bound.
  void set_cache_capacity(std::size_t capacity, sim::TimePoint now);

  // --- crash-recovery integration (src/resilience) ----------------------

  /// Captures the full serializable state (cache in age order, counters,
  /// live set + causality marks, monitor state) as of `now`.
  [[nodiscard]] CompareSnapshot snapshot(sim::TimePoint now) const;

  /// Warm restart: discards all current state and rebuilds from a
  /// snapshot. Every restored entry that was NOT released at checkpoint
  /// time is tainted (`recovered`): the crash may have eaten a release
  /// that happened after the checkpoint, so when such an entry later
  /// reaches a quorum the release is *suppressed* (counted in
  /// stats().suppressed_recovered, traced as compare.suppressed) — the
  /// at-most-once guarantee costs a bounded gap loss, never a duplicate.
  void restore(const CompareSnapshot& snap, sim::TimePoint now);

  /// Shadow mode (warm standby): ingest, compare, and judge exactly like
  /// a primary, but withhold every release — the entry is marked released
  /// (so a late promotion cannot re-emit it) and counted in
  /// stats().shadow_releases. Promotion flips this off.
  void set_shadow(bool shadow) noexcept { shadow_ = shadow; }
  [[nodiscard]] bool shadow() const noexcept { return shadow_; }

  // --- replica-health integration (src/health) -------------------------

  /// Installs (or, with nullptr, removes) the per-replica verdict sink.
  /// While null, no verdicts form and the compare behaves bit-identically
  /// to a core without the health subsystem.
  void set_verdict_sink(VerdictSink* sink) noexcept { verdict_sink_ = sink; }

  /// Adds/removes `replica` from the live set. Copies from a non-live
  /// replica are still ingested, compared against the exemplar, and judged
  /// (probation probes) but never count toward a quorum. The quorum adapts
  /// to the live set: strict majority over live replicas, falling back to
  /// first-copy detection mode once the live set shrinks to 2 (a majority
  /// of 2 would couple the release to the slower replica and stall on a
  /// single crash — detection is the correct degraded mode). The replica's
  /// missed-streak and inactivity flag are reset on every transition, so a
  /// quarantined replica cannot (re-)trigger the case-3 alarm and a
  /// readmitted one starts with a clean slate. `now` timestamps a
  /// readmission: entries created while the replica was out (it never
  /// received those copies) must not produce kMissed verdicts against it
  /// when they die after the readmission.
  void set_replica_live(int replica, bool live, sim::TimePoint now);

  /// Whether `replica` currently counts toward quorums.
  [[nodiscard]] bool replica_live(int replica) const noexcept {
    return (live_mask_ & (1ULL << static_cast<unsigned>(replica))) != 0;
  }

  /// Replicas currently in the live set.
  [[nodiscard]] int live_count() const noexcept { return live_count_; }

  /// Strict majority over the *live* set (== config().quorum() while all
  /// k replicas are live).
  [[nodiscard]] int live_quorum() const noexcept {
    return live_count_ / 2 + 1;
  }

  /// True when the shrunken live set forces first-copy detection mode.
  [[nodiscard]] bool degraded_first_copy() const noexcept {
    return live_count_ < config_.k && live_count_ <= 2;
  }

  /// Component name stamped on this core's trace records ("compare" by
  /// default; deployments use "compare/<edge>" to tell edges apart).
  void set_trace_label(std::string label) {
    trace_label_ = std::move(label);
    trace_name_.reset();
  }
  [[nodiscard]] const std::string& trace_label() const noexcept {
    return trace_label_;
  }

 private:
  using Slot = CompareStore::Slot;

  [[nodiscard]] std::uint64_t key_of(const net::Packet& packet) const;
  [[nodiscard]] bool same_packet(const net::Packet& a,
                                 const net::Packet& b) const;
  /// The full-verify entry slot holding `packet` under `key`, or kNil.
  /// Packets whose keys collide are separate entry slots under one key,
  /// told apart by same_packet().
  [[nodiscard]] Slot find_entry(std::uint64_t key,
                                const net::Packet& packet) const;
  /// Deterministic election: does this key take the full compare?
  [[nodiscard]] static bool sampled_key(std::uint64_t base,
                                        std::uint32_t period) noexcept;
  /// Sum of live replicas' weights (the fast-path quorum denominator).
  [[nodiscard]] double live_weight_total() const noexcept;
  /// Verdict/trace/stat bookkeeping for a dying vote slot; the
  /// evict_event selects the never-released counter (timeout, capacity or
  /// quota — mirroring the entries' three eviction paths). A released
  /// slot leaves a tombstone for its key so in-flight sibling copies
  /// cannot re-open a releasable slot (see tombstone_release()).
  void finalize_vote_death(const VoteEvicted& dead, sim::TimePoint now,
                           obs::TraceEvent evict_event);
  /// Records that `key`'s packet was released and its state is gone (vote
  /// slot evicted/swept, or a released entry erased). Until the tombstone
  /// expires — one hold_timeout, the same horizon in-flight copies are
  /// bounded by — a fast-path copy of the key is absorbed as
  /// late_after_release instead of electing a fresh (releasable) slot,
  /// which is the at-most-once backstop against cache-squeeze evictions
  /// of just-released state. No-op while sampling is off.
  void tombstone_release(std::uint64_t key, sim::TimePoint now);
  /// Whether `key` has an unexpired release tombstone.
  [[nodiscard]] bool recently_released_key(std::uint64_t key,
                                           sim::TimePoint now) const;
  /// Converts the scratch list of store-internal vote evictions (capacity
  /// squeezes, quota overflow) into stats/traces/verdicts.
  void drain_vote_evictions(sim::TimePoint now);
  /// Inactivity + verdict bookkeeping on entry death.
  void finalize(Slot entry, sim::TimePoint now);
  /// The replica-mask half of finalize(), shared with the vote slots:
  /// matched/missed verdicts plus the case-3 inactivity streak for a
  /// quorum-vouched packet that died with this vote mask.
  void finalize_masks(std::uint64_t replica_mask, sim::TimePoint first_seen,
                      sim::TimePoint now);
  void erase_entry(Slot entry, sim::TimePoint now);
  void capacity_cleanup(sim::TimePoint now);
  void quota_evict(int replica, sim::TimePoint now);
  void note_arrival(int replica, sim::TimePoint now);
  void note_garbage(int replica, sim::TimePoint now);
  void flag_block(int replica, sim::TimePoint now);
  /// Emits one verdict (no-op while no sink is installed).
  void verdict(VerdictKind kind, int replica, sim::TimePoint now);
  /// Attributable-garbage verdict for a dead singleton entry.
  void divergent_verdict(Slot entry, sim::TimePoint now);
  /// Emits one lifecycle record (no-op when tracing is disabled).
  void trace(obs::TraceEvent event, const net::Packet& packet,
             sim::TimePoint now, int replica);
  /// Same, for vote slots (which keep the id, not the packet).
  void trace_id(obs::TraceEvent event, std::uint64_t packet_id,
                std::uint32_t bytes, sim::TimePoint now, int replica);

  CompareConfig config_;
  CompareStats stats_;
  std::size_t last_cleanup_work_ = 0;
  bool shadow_ = false;  ///< standby shadow mode: quorums never release
  std::string trace_label_ = "compare";
  obs::LazyComponentName trace_name_;  ///< trace_label_, interned
  VerdictSink* verdict_sink_ = nullptr;
  /// Bit per replica in [0, k): 1 = counts toward quorums. All-ones by
  /// default; the health subsystem's QuarantineManager shrinks it.
  std::uint64_t live_mask_ = 0;
  int live_count_ = 0;
  /// Per replica: when it last (re)joined the live set. A live replica is
  /// only blamed for entries first seen after this point — the fan-out
  /// did not include it before.
  std::vector<sim::TimePoint> live_since_;
  obs::Observability* obs_;           ///< global context, cached
  obs::Histogram* verdict_latency_;   ///< "compare.verdict_latency_us"
  obs::Counter* released_counter_;    ///< "compare.released"
  obs::Counter* ingested_counter_;    ///< "compare.ingested"
  /// Created only when sampling is enabled, so a full-verify core leaves
  /// the global metrics snapshot byte-identical to the pre-§XII builds.
  obs::Counter* sampled_counter_ = nullptr;   ///< "compare.sampled"
  obs::Counter* fastpath_counter_ = nullptr;  ///< "compare.fastpath"

  /// Full-verify entries, plus vote slots and tombstones while sampling
  /// is enabled (both kinds stay empty otherwise).
  CompareStore store_;

  // Sampled-verification state (dormant while sampling is disabled).
  std::vector<double> weights_;  ///< health weights, 1.0 = pristine
  /// Until this instant the effective period is pinned to 1: a restored
  /// core must fully verify until pre-crash in-flight traffic drains.
  sim::TimePoint sampling_resume_at_ = sim::TimePoint::origin();
  std::vector<VoteEvicted> evicted_scratch_;

  // Per-replica monitors.
  std::vector<std::deque<std::int64_t>> arrival_ns_;  ///< rate windows
  std::vector<std::deque<std::int64_t>> garbage_ns_;  ///< garbage windows
  std::vector<std::uint64_t> missed_streak_;
  std::vector<bool> flagged_block_;
  std::vector<bool> flagged_inactive_;
  CompareAdvice pending_advice_;
};

}  // namespace netco::core
