#include "netco/compare_core.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/assert.h"
#include "common/hash.h"

namespace netco::core {
namespace {
/// Salt for the sampled-verification election (see sampled_key()).
/// Distinct from the store's index salt so the election does not
/// correlate with its collision pattern.
constexpr std::uint64_t kSampleSalt = 0xFA57C0DE5ULL;
/// A replica with weight >= this is "healthy": its first copy releases on
/// the fast path, and the adaptive period stays wide only while all live
/// replicas clear this bar.
constexpr double kHealthyWeight = 0.75;
}  // namespace

const char* to_string(VerdictKind kind) noexcept {
  switch (kind) {
    case VerdictKind::kMatched: return "matched";
    case VerdictKind::kMissed: return "missed";
    case VerdictKind::kDivergent: return "divergent";
    case VerdictKind::kFloodFlagged: return "flood_flagged";
    case VerdictKind::kInactive: return "inactive";
  }
  return "unknown";
}

CompareCore::CompareCore(CompareConfig config)
    : config_(config),
      obs_(&obs::global()),
      verdict_latency_(&obs_->metrics.histogram("compare.verdict_latency_us")),
      released_counter_(&obs_->metrics.counter("compare.released")),
      ingested_counter_(&obs_->metrics.counter("compare.ingested")),
      // Clamped so that the range check below, with its message, is the
      // one that rejects a bad k.
      store_(config_.cache_capacity, config_.sampling.vote_quota,
             std::clamp(config_.k, 1, CompareStore::kMaxReplicas)) {
  NETCO_ASSERT_MSG(
      config_.k >= 1 && config_.k < CompareStore::kMaxReplicas,
      "CompareConfig.k out of range: replica ids must fit the 64-bit vote "
      "bitmask (1 <= k < 64) — an oversized fleet would silently drop votes");
  live_mask_ = (1ULL << static_cast<unsigned>(config_.k)) - 1;
  live_count_ = config_.k;
  const auto n = static_cast<std::size_t>(config_.k);
  arrival_ns_.assign(n, {});
  garbage_ns_.assign(n, {});
  missed_streak_.assign(n, 0);
  flagged_block_.assign(n, false);
  flagged_inactive_.assign(n, false);
  live_since_.assign(n, sim::TimePoint::origin());
  weights_.assign(n, 1.0);
  if (config_.sampling.enabled) {
    // Counters exist only in sampled mode: a full-verify core must leave
    // the global metrics snapshot byte-identical to pre-§XII builds.
    sampled_counter_ = &obs_->metrics.counter("compare.sampled");
    fastpath_counter_ = &obs_->metrics.counter("compare.fastpath");
  }
}

std::uint64_t CompareCore::key_of(const net::Packet& packet) const {
  switch (config_.mode) {
    case CompareMode::kFullPacket:
      return packet.content_hash() & config_.key_mask;
    case CompareMode::kHeaderOnly:
      return packet.prefix_hash(config_.header_prefix) & config_.key_mask;
    case CompareMode::kHashed:
      return packet.content_hash() & config_.key_mask;
  }
  return packet.content_hash() & config_.key_mask;
}

bool CompareCore::same_packet(const net::Packet& a,
                              const net::Packet& b) const {
  switch (config_.mode) {
    case CompareMode::kFullPacket:
      // The paper's memcmp(). In the honest case the k copies still share
      // the hub's payload buffer, so this is a pointer comparison; only a
      // tampered (detached) copy pays for a byte-wise compare.
      return a == b;
    case CompareMode::kHeaderOnly: {
      const std::size_t n = config_.header_prefix;
      const auto pa = a.bytes(), pb = b.bytes();
      const std::size_t la = std::min(n, pa.size());
      const std::size_t lb = std::min(n, pb.size());
      return la == lb && std::equal(pa.begin(), pa.begin() + static_cast<std::ptrdiff_t>(la),
                                    pb.begin());
    }
    case CompareMode::kHashed:
      return true;  // key equality is trusted (cheap but collision-prone)
  }
  return false;
}

void CompareCore::trace(obs::TraceEvent event, const net::Packet& packet,
                        sim::TimePoint now, int replica) {
  obs::Tracer& tracer = obs_->tracer;
  if (!tracer.enabled()) [[likely]] return;
  // content_hash() is memoized in the packet's shared payload buffer:
  // key_of() already computed it on ingest, so every lifecycle record an
  // entry emits afterwards (release, evict, duplicate, expire...) reads
  // the cached value instead of rehashing the payload.
  tracer.emit(now.ns(), event, packet.content_hash(),
              trace_name_.get(trace_label_), replica,
              static_cast<std::uint32_t>(packet.size()));
}

void CompareCore::trace_id(obs::TraceEvent event, std::uint64_t packet_id,
                           std::uint32_t bytes, sim::TimePoint now,
                           int replica) {
  obs::Tracer& tracer = obs_->tracer;
  if (!tracer.enabled()) [[likely]] return;
  tracer.emit(now.ns(), event, packet_id, trace_name_.get(trace_label_),
              replica, bytes);
}

void CompareCore::flag_block(int replica, sim::TimePoint now) {
  if (flagged_block_[static_cast<std::size_t>(replica)]) return;
  flagged_block_[static_cast<std::size_t>(replica)] = true;
  pending_advice_.block_replicas.push_back(replica);
  verdict(VerdictKind::kFloodFlagged, replica, now);
}

void CompareCore::note_arrival(int replica, sim::TimePoint now) {
  auto& window = arrival_ns_[static_cast<std::size_t>(replica)];
  window.push_back(now.ns());
  const std::int64_t horizon = now.ns() - config_.rate_window.ns();
  while (!window.empty() && window.front() < horizon) window.pop_front();
  if (window.size() > config_.rate_limit_packets) flag_block(replica, now);
}

void CompareCore::note_garbage(int replica, sim::TimePoint now) {
  auto& window = garbage_ns_[static_cast<std::size_t>(replica)];
  window.push_back(now.ns());
  const std::int64_t horizon = now.ns() - config_.rate_window.ns();
  while (!window.empty() && window.front() < horizon) window.pop_front();
  if (window.size() > config_.garbage_limit_packets) flag_block(replica, now);
}

void CompareCore::verdict(VerdictKind kind, int replica, sim::TimePoint now) {
  if (verdict_sink_ == nullptr) [[likely]] return;
  const std::uint64_t bit = 1ULL << static_cast<unsigned>(replica);
  verdict_sink_->on_verdict(ReplicaVerdict{.kind = kind,
                                           .replica = replica,
                                           .live = (live_mask_ & bit) != 0,
                                           .at = now});
}

void CompareCore::divergent_verdict(Slot entry, sim::TimePoint now) {
  // Only a dead *singleton* is attributable: exactly one replica sent it
  // and nobody confirmed. Multi-contributor minority entries (loss, churn)
  // are ambiguous and produce no verdict.
  if (store_.released(entry) || std::popcount(store_.mask(entry)) != 1) {
    return;
  }
  verdict(VerdictKind::kDivergent, store_.first_replica(entry), now);
}

void CompareCore::set_replica_live(int replica, bool live,
                                   sim::TimePoint now) {
  if (replica < 0 || replica >= config_.k) return;
  const std::uint64_t bit = 1ULL << static_cast<unsigned>(replica);
  if (((live_mask_ & bit) != 0) == live) return;
  if (live) {
    live_mask_ |= bit;
    ++live_count_;
    // Entries already in the cache were fanned out while this replica was
    // masked; their deaths must not read as misses (finalize checks this).
    live_since_[static_cast<std::size_t>(replica)] = now;
  } else {
    live_mask_ &= ~bit;
    --live_count_;
  }
  // Fresh slate in both directions: a quarantined replica must not keep a
  // half-built missed streak (or a latched alarm), and a readmitted one
  // starts its case-3 accounting from zero.
  const auto idx = static_cast<std::size_t>(replica);
  missed_streak_[idx] = 0;
  flagged_inactive_[idx] = false;
}

void CompareCore::set_replica_weight(int replica, double weight) noexcept {
  if (replica < 0 || replica >= config_.k) return;
  weights_[static_cast<std::size_t>(replica)] = std::clamp(weight, 0.0, 1.0);
}

double CompareCore::replica_weight(int replica) const noexcept {
  if (replica < 0 || replica >= config_.k) return 0.0;
  return weights_[static_cast<std::size_t>(replica)];
}

double CompareCore::live_weight_total() const noexcept {
  double total = 0.0;
  for (int r = 0; r < config_.k; ++r) {
    if (((live_mask_ >> static_cast<unsigned>(r)) & 1ULL) != 0) {
      total += weights_[static_cast<std::size_t>(r)];
    }
  }
  return total;
}

bool CompareCore::sampled_key(std::uint64_t base,
                              std::uint32_t period) noexcept {
  if (period <= 1) return true;
  return hash_mix(base, kSampleSalt) % period == 0;
}

std::uint32_t CompareCore::effective_period(sim::TimePoint now) const
    noexcept {
  const CompareSampling& s = config_.sampling;
  if (!s.enabled || s.period <= 1) return 1;
  if (now < sampling_resume_at_) return 1;  // post-restore conservatism
  for (int r = 0; r < config_.k; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    // Any flagged replica — or any *live* replica below the healthy bar —
    // collapses the period to 1: full verification until the health loop
    // sorts the suspect out. Quarantined replicas are judged through
    // their probe verdicts and do not hold the period down.
    if (flagged_block_[idx] || flagged_inactive_[idx]) return 1;
    if (((live_mask_ >> static_cast<unsigned>(r)) & 1ULL) != 0 &&
        weights_[idx] < kHealthyWeight) {
      return 1;
    }
  }
  return s.period;
}

CompareCore::Slot CompareCore::find_entry(std::uint64_t key,
                                          const net::Packet& packet) const {
  return store_.find(SlotKind::kEntry, key, [&](Slot s) {
    return same_packet(store_.exemplar(s), packet);
  });
}

void CompareCore::tombstone_release(std::uint64_t key, sim::TimePoint now) {
  if (!config_.sampling.enabled) return;
  // A key re-tombstoned inside the window restarts its expiry.
  const Slot old = store_.find(SlotKind::kTombstone, key);
  if (old != CompareStore::kNil) store_.erase(old);
  store_.insert(SlotKind::kTombstone, key, now.ns(), -1, false);
}

bool CompareCore::recently_released_key(std::uint64_t key,
                                        sim::TimePoint now) const {
  // An expired tombstone that the sweep has not reached yet no longer
  // counts: a same-hash packet this far out is a legitimate repeat,
  // exactly as a recreated entry after expiry is.
  const Slot tomb = store_.find(SlotKind::kTombstone, key);
  return tomb != CompareStore::kNil &&
         now.ns() - store_.first_seen_ns(tomb) < config_.hold_timeout.ns();
}

void CompareCore::finalize_vote_death(const VoteEvicted& dead,
                                      sim::TimePoint now,
                                      obs::TraceEvent evict_event) {
  if (dead.escalated) return;  // routing memo: the entry owns this packet
  const std::uint64_t mask = dead.mask;
  const int first_replica = dead.first_replica;
  const int voters = std::popcount(mask);
  if (dead.released) {
    // The slot is gone but the packet went out: sibling copies still in
    // flight must find the tombstone, not a vacant (re-releasable) key.
    tombstone_release(dead.key, now);
    if (std::popcount(mask & live_mask_) >= live_quorum()) {
      // Quorum-vouched after the fact: the usual matched/missed and
      // case-3 inactivity accounting applies. Silent in the trace stream,
      // like the full path's completion retirement — the release record
      // already told the story.
      finalize_masks(mask, sim::TimePoint::from_ns(dead.first_seen_ns), now);
    } else {
      // Released on healthy-first-copy trust but never confirmed — the
      // fast path's detection signal (kFirstCopy mismatch accounting).
      // Blame-by-absence would be wrong here (a fabricated packet's
      // honest non-confirmers are innocent); only a singleton is
      // attributable, to its sender.
      ++stats_.mismatch_detected;
      if (voters == 1 && first_replica >= 0) {
        note_garbage(first_replica, now);
        verdict(VerdictKind::kDivergent, first_replica, now);
      }
      trace_id(obs::TraceEvent::kCompareExpire, dead.packet_id, dead.bytes,
               now, -1);
    }
    return;
  }
  switch (evict_event) {
    case obs::TraceEvent::kCompareEvictCapacity:
      ++stats_.evicted_capacity;
      break;
    case obs::TraceEvent::kCompareEvictQuota:
      ++stats_.evicted_quota;
      break;
    default:
      ++stats_.evicted_timeout;  // §IV case 1, fast-path flavour
      break;
  }
  trace_id(evict_event, dead.packet_id, dead.bytes, now,
           voters == 1 ? first_replica : -1);
  if (voters == 1 && first_replica >= 0) {
    note_garbage(first_replica, now);
    verdict(VerdictKind::kDivergent, first_replica, now);
  }
}

void CompareCore::drain_vote_evictions(sim::TimePoint now) {
  for (const VoteEvicted& ev : evicted_scratch_) {
    finalize_vote_death(ev, now,
                        ev.reason == VoteEvictReason::kQuota
                            ? obs::TraceEvent::kCompareEvictQuota
                            : obs::TraceEvent::kCompareEvictCapacity);
  }
  evicted_scratch_.clear();
}

FastResult CompareCore::ingest_sampled(int replica, const net::Packet& packet,
                                       sim::TimePoint now) {
  FastResult out;
  if (!config_.sampling.enabled) {  // everything escalates
    out.escalated = true;
    return out;
  }
  if (replica < 0 || replica >= config_.k) {
    ++stats_.rejected_replica;
    return out;
  }

  const std::uint64_t base = key_of(packet);
  Slot slot = store_.find(SlotKind::kVote, base);
  if (slot == CompareStore::kNil) {
    // A release tombstone means this packet already went out and its
    // state is gone (vote slot evicted under squeeze pressure, swept, or
    // a released entry erased). Absorb the straggler as late noise —
    // re-running the election here could open a fresh releasable slot and
    // emit the packet a second time. A live entry overrides the tombstone
    // (a colliding *different* packet must still feed its own quorum).
    const bool has_entry = find_entry(base, packet) != CompareStore::kNil;
    if (!has_entry && recently_released_key(base, now)) {
      ++stats_.ingested;
      ++stats_.fastpath_ingested;
      ingested_counter_->inc();
      note_arrival(replica, now);
      ++stats_.late_after_release;
      return out;
    }
    // The first copy decides the route for every later copy (memoized in
    // the slot): the deterministic election, overridden to "escalate"
    // when the packet already has an entry (restored entries, or copies
    // that pre-date a period change) — splitting one packet's copies
    // across both paths would starve its entry's quorum.
    const bool escalate =
        has_entry || sampled_key(base, effective_period(now));
    evicted_scratch_.clear();
    slot = store_.insert_vote(base, packet.content_hash(), now.ns(),
                              static_cast<std::uint32_t>(packet.size()),
                              replica, escalate, evicted_scratch_);
    drain_vote_evictions(now);
    if (escalate) {
      ++stats_.sampled_escalated;
      if (sampled_counter_ != nullptr) sampled_counter_->inc();
      trace(obs::TraceEvent::kCompareSampled, packet, now, replica);
      out.escalated = true;
      return out;
    }
  } else if (store_.escalated(slot)) {
    out.escalated = true;  // memoized election: this packet is full-path
    return out;
  }

  // Fast-path vote. Metrics accounting matches the full path, but the
  // trace stream is thinned to what the protocol checker needs: the
  // release record itself carries its deciding replica, so in the common
  // case (healthy first copy) one record narrates the whole packet.
  // Pre-release votes that did NOT release are still traced (they justify
  // a later weighted-majority release); post-release copies are counted,
  // rate-monitored, and duplicate-checked — just not narrated one record
  // at a time. This thinning is where the sampled mode's wall-clock win
  // comes from; the 1-in-N elected packets keep the full per-copy story
  // on the punt path.
  const bool was_released = store_.released(slot);
  ++stats_.ingested;
  ++stats_.fastpath_ingested;
  ingested_counter_->inc();
  note_arrival(replica, now);

  const double weight = replica_live(replica)
                            ? weights_[static_cast<std::size_t>(replica)]
                            : 0.0;  // probation copies never vote
  if (!store_.add_vote(slot, replica, weight)) {
    ++stats_.duplicates_same_port;  // §IV case 2, fast-path flavour
    note_garbage(replica, now);
    trace(obs::TraceEvent::kCompareDuplicate, packet, now, replica);
    return out;
  }
  if (was_released) {
    ++stats_.late_after_release;
    return out;
  }

  // Release rule: the first copy from a fully-healthy live replica goes
  // straight through (the common case, and the latency win); otherwise
  // the weighted tally must clear half the live weight — a
  // reputation-scaled majority that hardens as replicas lose standing.
  const bool release_now =
      replica_live(replica) &&
      (weight >= kHealthyWeight ||
       store_.tally(slot) > live_weight_total() / 2.0);
  if (!release_now) {
    trace(obs::TraceEvent::kCompareIngest, packet, now, replica);
    return out;
  }
  store_.set_released(slot);
  if (shadow_) [[unlikely]] {
    ++stats_.shadow_releases;
    trace(obs::TraceEvent::kCompareSuppressed, packet, now, replica);
    return out;
  }
  ++stats_.released;
  ++stats_.fastpath_released;
  released_counter_->inc();
  if (fastpath_counter_ != nullptr) fastpath_counter_->inc();
  verdict_latency_->observe(
      (now - sim::TimePoint::from_ns(store_.first_seen_ns(slot))).us());
  trace(obs::TraceEvent::kCompareFastpath, packet, now, replica);
  out.released = packet;
  return out;
}

std::optional<net::Packet> CompareCore::ingest(int replica, net::Packet packet,
                                               sim::TimePoint now) {
  if (replica < 0 || replica >= config_.k) {
    // A packet-in from an unregistered port (or a buggy deployment layer)
    // must not shift 1 << replica past the mask — reject, don't corrupt.
    ++stats_.rejected_replica;
    return std::nullopt;
  }
  ++stats_.ingested;
  ingested_counter_->inc();
  last_cleanup_work_ = 0;
  note_arrival(replica, now);
  trace(obs::TraceEvent::kCompareIngest, packet, now, replica);

  const std::uint64_t key = key_of(packet);
  const Slot entry = find_entry(key, packet);

  if (entry == CompareStore::kNil) {
    // First copy of a (possibly fabricated) packet. Caching the exemplar
    // is a refcount bump on the shared payload, not a deep copy. It holds
    // a slot of its replica's singleton quota until a second replica
    // confirms — released or not.
    const Slot fresh = store_.insert(SlotKind::kEntry, key, now.ns(), replica,
                                     /*holds_quota=*/true);
    store_.add_vote(fresh, replica, 0.0);
    store_.exemplar(fresh) = std::move(packet);

    // A copy from a non-live (probation) replica never releases anything:
    // it is cached, compared, and judged, but carries no vote. With all k
    // replicas live this reduces to the original policy check.
    const bool release_now =
        replica_live(replica) &&
        (config_.policy == ReleasePolicy::kFirstCopy ||
         degraded_first_copy() || live_quorum() == 1);
    std::optional<net::Packet> released;
    if (release_now) {
      store_.set_released(fresh);
      if (shadow_) [[unlikely]] {
        // Standby shadow mode: the quorum is tracked (the entry stays
        // marked released so promotion can never re-emit it) but the
        // packet is withheld — the primary owns the egress.
        ++stats_.shadow_releases;
        trace(obs::TraceEvent::kCompareSuppressed, store_.exemplar(fresh),
              now, replica);
      } else {
        ++stats_.released;
        released_counter_->inc();
        verdict_latency_->observe(0.0);
        trace(obs::TraceEvent::kCompareRelease, store_.exemplar(fresh), now,
              replica);
        released = store_.exemplar(fresh);
      }
    }

    stats_.cache_entries = store_.size(SlotKind::kEntry);
    stats_.max_cache_entries =
        std::max(stats_.max_cache_entries, stats_.cache_entries);
    if (store_.quota_count(SlotKind::kEntry, replica) >
        config_.per_replica_quota) {
      quota_evict(replica, now);
    }
    if (store_.size(SlotKind::kEntry) > config_.cache_capacity) {
      capacity_cleanup(now);
    }
    return released;
  }

  if (!store_.add_vote(entry, replica, 0.0)) {
    // Same replica, same packet again: §IV case 2 (DoS signature).
    ++stats_.duplicates_same_port;
    note_garbage(replica, now);
    trace(obs::TraceEvent::kCompareDuplicate, store_.exemplar(entry), now,
          replica);
    return std::nullopt;
  }
  // The second contribution returned the singleton-quota slot — also for
  // a kFirstCopy entry released on arrival, which kept its slot until the
  // partner confirmed.

  if (store_.released(entry)) {
    ++stats_.late_after_release;
    trace(obs::TraceEvent::kCompareLate, store_.exemplar(entry), now,
          replica);
    return std::nullopt;
  }

  // Release decision over the *live* set: a probation copy never votes,
  // and the quorum is a strict majority of live replicas (first copy once
  // the live set has degraded to detection mode). With all replicas live
  // the live contribution count equals the entry's contributions and this
  // is the original majority test, bit for bit.
  const bool first_copy_mode =
      config_.policy == ReleasePolicy::kFirstCopy || degraded_first_copy();
  const int live_contributions =
      std::popcount(store_.mask(entry) & live_mask_);
  if (replica_live(replica) &&
      (first_copy_mode ? live_contributions >= 1
                       : live_contributions >= live_quorum())) {
    store_.set_released(entry);
    if (shadow_ || store_.recovered(entry)) [[unlikely]] {
      // Withheld release: either this core is a shadow standby (the
      // primary owns the egress), or the entry was restored from a
      // checkpoint and may already have been released before the crash.
      // Marking it released while suppressing the emission converts an
      // unknowable double-release into a bounded, measured gap loss.
      if (shadow_) {
        ++stats_.shadow_releases;
      } else {
        ++stats_.suppressed_recovered;
      }
      trace(obs::TraceEvent::kCompareSuppressed, store_.exemplar(entry), now,
            replica);
      return std::nullopt;
    }
    ++stats_.released;
    released_counter_->inc();
    verdict_latency_->observe(
        (now - sim::TimePoint::from_ns(store_.first_seen_ns(entry))).us());
    trace(obs::TraceEvent::kCompareRelease, store_.exemplar(entry), now,
          replica);
    return store_.exemplar(entry);
  }
  return std::nullopt;
}

void CompareCore::finalize(Slot entry, sim::TimePoint now) {
  // Inactivity accounting runs only for packets the quorum vouched for:
  // a replica missing from an agreed packet is suspect; replicas absent
  // from a fabricated minority packet are not.
  if (!store_.released(entry)) return;
  finalize_masks(store_.mask(entry),
                 sim::TimePoint::from_ns(store_.first_seen_ns(entry)), now);
}

void CompareCore::finalize_masks(std::uint64_t replica_mask,
                                 sim::TimePoint first_seen,
                                 sim::TimePoint now) {
  for (int r = 0; r < config_.k; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    const std::uint64_t bit = 1ULL << static_cast<unsigned>(r);
    const bool present = (replica_mask & bit) != 0;
    if ((live_mask_ & bit) == 0) {
      // Probation: a probe copy that agreed with the released packet is
      // evidence for readmission; absence proves nothing (the trickle is
      // sampled) and must not feed the case-3 streak.
      if (present) verdict(VerdictKind::kMatched, r, now);
      continue;
    }
    if (present) {
      missed_streak_[idx] = 0;
      // Reappearance clears the case-3 latch: the health loop needs the
      // alarm again if the replica dies again later. Alarm storms stay
      // bounded by the threshold width (one alarm per full dead streak),
      // not by a once-per-run latch.
      flagged_inactive_[idx] = false;
      verdict(VerdictKind::kMatched, r, now);
    } else {
      // No blame for entries older than the replica's (re)admission: the
      // fan-out did not include it when those copies were multiplied.
      if (first_seen < live_since_[idx]) continue;
      verdict(VerdictKind::kMissed, r, now);
      if (++missed_streak_[idx] == config_.inactivity_threshold &&
          !flagged_inactive_[idx]) {
        flagged_inactive_[idx] = true;
        pending_advice_.inactive_replicas.push_back(r);
        verdict(VerdictKind::kInactive, r, now);
      }
    }
  }
}

void CompareCore::erase_entry(Slot entry, sim::TimePoint now) {
  // Fast-path backstop (no-op while sampling is off): once a released
  // entry is gone, a straggler copy on the *fast* path must not elect a
  // fresh releasable vote slot for the same key — the full path's
  // recreate-needs-quorum protection does not exist there.
  if (store_.released(entry)) tombstone_release(store_.key(entry), now);
  // Any eviction path returns the quota slot — including a released
  // kFirstCopy singleton whose partner never confirmed.
  store_.erase(entry);
  stats_.cache_entries = store_.size(SlotKind::kEntry);
}

std::size_t CompareCore::sweep(sim::TimePoint now) {
  std::size_t evicted = 0;
  // One horizon for every kind: first_seen <= now - hold_timeout dies.
  const std::int64_t horizon = now.ns() - config_.hold_timeout.ns() + 1;
  for (Slot entry = store_.head(SlotKind::kEntry);
       entry != CompareStore::kNil && store_.first_seen_ns(entry) < horizon;
       entry = store_.head(SlotKind::kEntry)) {
    const std::uint64_t mask = store_.mask(entry);
    if (store_.released(entry)) {
      // Normal death of an agreed packet whose stragglers never came.
      finalize(entry, now);
      if ((config_.policy == ReleasePolicy::kFirstCopy ||
           degraded_first_copy()) &&
          std::popcount(mask & live_mask_) < live_count_) {
        ++stats_.mismatch_detected;  // detection mode: partner disagreed
        // Attribute the disagreement: every live replica that failed to
        // confirm the released packet is a suspect (§IV detection).
        // Probation replicas are judged through their verdicts instead.
        for (int r = 0; r < config_.k; ++r) {
          const std::uint64_t bit = 1ULL << static_cast<unsigned>(r);
          if ((live_mask_ & bit) != 0 && (mask & bit) == 0) {
            trace(obs::TraceEvent::kCompareMismatch, store_.exemplar(entry),
                  now, r);
          }
        }
      }
      trace(obs::TraceEvent::kCompareExpire, store_.exemplar(entry), now, -1);
    } else {
      ++stats_.evicted_timeout;  // §IV case 1: minority packet, never sent
      const bool singleton = std::popcount(mask) == 1;
      const int first_replica = store_.first_replica(entry);
      trace(obs::TraceEvent::kCompareEvictTimeout, store_.exemplar(entry),
            now, singleton ? first_replica : -1);
      if (singleton) {
        // A singleton that nobody confirmed is attributable garbage.
        note_garbage(first_replica, now);
        divergent_verdict(entry, now);
      }
    }
    erase_entry(entry, now);
    ++evicted;
  }
  store_.sweep(SlotKind::kVote, horizon, [&](Slot vote) {
    finalize_vote_death(store_.vote_state(vote), now,
                        obs::TraceEvent::kCompareEvictTimeout);
    ++evicted;
  });
  store_.sweep(SlotKind::kTombstone, horizon, [](Slot) {});
  return evicted;
}

void CompareCore::capacity_cleanup(sim::TimePoint now) {
  ++stats_.cleanup_passes;
  const auto target = static_cast<std::size_t>(
      static_cast<double>(config_.cache_capacity) * config_.cleanup_low_water);
  std::size_t work = 0;
  while (store_.size(SlotKind::kEntry) > target) {
    const Slot entry = store_.head(SlotKind::kEntry);
    if (store_.released(entry)) {
      finalize(entry, now);
      trace(obs::TraceEvent::kCompareExpire, store_.exemplar(entry), now, -1);
    } else {
      ++stats_.evicted_capacity;
      const bool singleton = std::popcount(store_.mask(entry)) == 1;
      const int first_replica = store_.first_replica(entry);
      trace(obs::TraceEvent::kCompareEvictCapacity, store_.exemplar(entry),
            now, singleton ? first_replica : -1);
      if (singleton) {
        // A singleton squeezed out under memory pressure is just as
        // attributable as one that timed out — the garbage monitor must
        // see flood traffic regardless of which eviction path fires.
        note_garbage(first_replica, now);
        divergent_verdict(entry, now);
      }
    }
    erase_entry(entry, now);
    ++work;
  }
  last_cleanup_work_ = work;
}

void CompareCore::quota_evict(int replica, sim::TimePoint now) {
  // The paper's logically-isolated buffers: a replica flooding unique
  // packets can only consume its own quota. Evict its oldest unreleased
  // singleton.
  for (Slot entry = store_.head(SlotKind::kEntry); entry != CompareStore::kNil;
       entry = store_.next_in_age(entry)) {
    if (!store_.released(entry) && std::popcount(store_.mask(entry)) == 1 &&
        store_.first_replica(entry) == replica) {
      ++stats_.evicted_quota;
      trace(obs::TraceEvent::kCompareEvictQuota, store_.exemplar(entry), now,
            replica);
      note_garbage(replica, now);
      divergent_verdict(entry, now);
      erase_entry(entry, now);
      return;
    }
  }
}

CompareAdvice CompareCore::take_advice() {
  CompareAdvice out = std::move(pending_advice_);
  pending_advice_ = CompareAdvice{};
  return out;
}

CompareAudit CompareCore::audit() const { return store_.audit(); }

void CompareCore::set_cache_capacity(std::size_t capacity, sim::TimePoint now) {
  config_.cache_capacity = capacity;
  if (store_.size(SlotKind::kEntry) > config_.cache_capacity) {
    capacity_cleanup(now);
  }
  // The squeeze binds the vote slots too, and every expelled slot is
  // accounted for (no stranded votes).
  evicted_scratch_.clear();
  store_.set_capacity(capacity, evicted_scratch_);
  drain_vote_evictions(now);
}

CompareSnapshot CompareCore::snapshot() const {
  CompareSnapshot snap;
  snap.stats = stats_;
  snap.live_mask = live_mask_;
  snap.live_count = live_count_;
  snap.live_since = live_since_;
  snap.missed_streak = missed_streak_;
  snap.flagged_block = flagged_block_;
  snap.flagged_inactive = flagged_inactive_;
  snap.entries.reserve(store_.size(SlotKind::kEntry));
  // Age order, oldest first: restore() re-inserts in this order, so the
  // rebuilt age list is byte-for-byte the original eviction order.
  for (Slot e = store_.head(SlotKind::kEntry); e != CompareStore::kNil;
       e = store_.next_in_age(e)) {
    snap.entries.push_back(SnapshotEntry{
        .key = store_.key(e),
        .exemplar = store_.exemplar(e),
        .replica_mask = store_.mask(e),
        .first_replica = store_.first_replica(e),
        .holds_singleton_slot = store_.holds_quota(e),
        .released = store_.released(e),
        .recovered = store_.recovered(e),
        .first_seen_ns = store_.first_seen_ns(e)});
  }
  return snap;
}

void CompareCore::restore(const CompareSnapshot& snap, sim::TimePoint now) {
  // Fast-path state is NOT checkpointed (vote slots are a routing memo
  // plus unconfirmed tallies — conservatively droppable), and tombstones
  // go with it: during the post-restore pin below every packet escalates,
  // and the entries' recovered taint owns the at-most-once guarantee.
  store_.clear();
  const auto n = static_cast<std::size_t>(config_.k);
  // Rate/garbage windows intentionally restart empty: replaying pre-crash
  // arrivals would re-accuse replicas for traffic already judged.
  arrival_ns_.assign(n, {});
  garbage_ns_.assign(n, {});
  pending_advice_ = CompareAdvice{};
  last_cleanup_work_ = 0;

  // A snapshot always comes from a core with the same k.
  NETCO_DASSERT(snap.live_since.size() == n);
  stats_ = snap.stats;
  live_mask_ = snap.live_mask;
  live_count_ = snap.live_count;
  live_since_ = snap.live_since;
  missed_streak_ = snap.missed_streak;
  flagged_block_ = snap.flagged_block;
  flagged_inactive_ = snap.flagged_inactive;

  for (const SnapshotEntry& se : snap.entries) {
    const Slot e = store_.insert(SlotKind::kEntry, se.key, se.first_seen_ns,
                                 se.first_replica, se.holds_singleton_slot);
    store_.exemplar(e) = se.exemplar;
    store_.set_mask(e, se.replica_mask);
    if (se.released) store_.set_released(e);
    // The conservative-replay taint: an unreleased checkpoint entry may
    // have been released between the checkpoint and the crash, so its
    // post-restart quorum must never release again.
    if (se.recovered || !se.released) store_.set_recovered(e);
  }
  stats_.cache_entries = store_.size(SlotKind::kEntry);
  stats_.max_cache_entries =
      std::max(stats_.max_cache_entries, stats_.cache_entries);

  if (config_.sampling.enabled) {
    // After a restore the core fully verifies for one hold window:
    // restored entries force their copies to escalate anyway
    // (find_entry), and pinning the period keeps fresh pre-crash
    // in-flight copies off vote slots that no longer remember their
    // releases.
    sampling_resume_at_ = now + config_.hold_timeout;
  }
}

}  // namespace netco::core
