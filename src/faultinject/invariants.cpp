#include "faultinject/invariants.h"

#include <bit>
#include <cstdio>
#include <span>
#include <utility>

namespace netco::faultinject {

namespace {
constexpr std::size_t kMaxDetails = 32;
/// Window of the at-most-once egress and reroute-loop checks.
constexpr std::int64_t kDuplicateWindowNs = 50'000'000;  // 50 ms
}  // namespace

void InvariantReport::note(std::string detail) {
  ++violations;
  if (details.size() < kMaxDetails) details.push_back(std::move(detail));
}

void InvariantReport::merge(const InvariantReport& other) {
  checks += other.checks;
  violations += other.violations;
  for (const auto& detail : other.details) {
    if (details.size() == kMaxDetails) break;
    details.push_back(detail);
  }
}

void check_audit(const core::CompareAudit& audit, const std::string& where,
                 InvariantReport& report) {
  static constexpr const char* kKindNames[core::kSlotKinds] = {
      "entry", "vote", "tombstone"};
  char buf[192];

  for (std::size_t k = 0; k < core::kSlotKinds; ++k) {
    const core::SlotAudit& kind = audit.kinds[k];
    const char* name = kKindNames[k];
    ++report.checks;
    if (!kind.consistent()) {
      std::snprintf(buf, sizeof buf,
                    "%s: %s slots: size %zu, age list %zu, index %zu",
                    where.c_str(), name, kind.size, kind.age_entries,
                    kind.index_entries);
      report.note(buf);
    }
    ++report.checks;
    if (!kind.age_ordered) {
      std::snprintf(buf, sizeof buf, "%s: %s age list not oldest-first",
                    where.c_str(), name);
      report.note(buf);
    }
    ++report.checks;
    if (kind.size > kind.capacity) {
      std::snprintf(buf, sizeof buf, "%s: %s slots %zu exceed capacity %zu",
                    where.c_str(), name, kind.size, kind.capacity);
      report.note(buf);
    }
    for (std::size_t r = 0; r < kind.quota_counts.size(); ++r) {
      ++report.checks;
      const std::size_t held =
          r < kind.quota_held.size() ? kind.quota_held[r] : 0;
      if (kind.quota_counts[r] != held) {
        std::snprintf(buf, sizeof buf,
                      "%s: %s replica %zu quota counter %zu != held slots %zu",
                      where.c_str(), name, r, kind.quota_counts[r], held);
        report.note(buf);
      }
    }
  }
  ++report.checks;
  const std::size_t live = audit.live_slots();
  if (live + audit.free_slots != audit.arena) {
    std::snprintf(buf, sizeof buf,
                  "%s: %zu live + %zu free slots != arena %zu",
                  where.c_str(), live, audit.free_slots, audit.arena);
    report.note(buf);
  }
}

QuorumTraceChecker::EgressGroup QuorumTraceChecker::egress_group(
    obs::ComponentName component) {
  const std::uint32_t id = component.id();
  if (id < group_by_component_.size() && group_by_component_[id]) {
    return *group_by_component_[id];
  }
  // Cold path: a component seen for the first time. Group by the wire:
  // "compare/netco-e0" and "standby/netco-e0" both emit onto edge
  // netco-e0, so they must land in the same group.
  const std::string_view name = component.text();
  const std::size_t slash = name.find('/');
  const std::string suffix(
      slash == std::string_view::npos ? name : name.substr(slash + 1));
  auto [git, inserted] = group_by_suffix_.try_emplace(suffix);
  if (inserted) {
    git->second.id = group_by_suffix_.size() - 1;
    git->second.name_fnv =
        fnv1a(std::as_bytes(std::span(suffix.data(), suffix.size())));
    last_release_.resize(group_by_suffix_.size());
  }
  if (id >= group_by_component_.size()) group_by_component_.resize(id + 1);
  group_by_component_[id] = git->second;
  return git->second;
}

void QuorumTraceChecker::append(const obs::TraceRecord& record) {
  ++records_;
  // Every field at full width; the component as the FNV-1a of its name.
  hash_ = hash_mix(hash_, static_cast<std::uint64_t>(record.at_ns));
  hash_ = hash_mix(hash_, static_cast<std::uint64_t>(record.event));
  hash_ = hash_mix(hash_, record.packet_id);
  hash_ = hash_mix(hash_, static_cast<std::uint64_t>(record.replica));
  hash_ = hash_mix(hash_, record.bytes);
  hash_ = hash_mix(hash_, record.component.fnv());

  const VoteKey key{record.component.id(), record.packet_id};
  switch (record.event) {
    case obs::TraceEvent::kCompareIngest:
      if (record.replica >= 0 && record.replica < 64) {
        votes_[key] |= 1ULL << static_cast<unsigned>(record.replica);
      }
      break;
    case obs::TraceEvent::kCompareRelease:
    case obs::TraceEvent::kCompareFastpath: {
      const bool fastpath = record.event == obs::TraceEvent::kCompareFastpath;
      ++releases_;
      ++report_.checks;
      const auto vote = votes_.find(key);
      std::uint64_t counted = vote != votes_.end() ? vote->second : 0;
      // A fast-path release record names its deciding replica — the vote
      // that tripped the release rule rides the release record instead of
      // a separate ingest record (the sampled mode's trace thinning).
      if (fastpath && record.replica >= 0 && record.replica < 64) {
        counted |= 1ULL << static_cast<unsigned>(record.replica);
      }
      int needed = config_.first_copy ? 1 : config_.quorum;
      if (config_.k > 0) {
        // Adaptive mode: mirror CompareCore's live-set rules against the
        // health records already folded into quarantined_mask_.
        counted &= ~quarantined_mask_;
        const int live = config_.k - std::popcount(quarantined_mask_);
        needed = (config_.first_copy || live <= 2) ? 1 : live / 2 + 1;
      }
      // A fast-path release is first-copy-shaped by design: legal with one
      // vote, as long as that vote came from a non-quarantined replica —
      // filtered here unconditionally, because the k > 0 filter above is
      // off in non-adaptive checker configs and a quarantined deciding
      // replica must never pass on the OR'd-in release vote alone.
      if (fastpath) {
        counted &= ~quarantined_mask_;
        needed = 1;
      }
      const int vote_count = std::popcount(counted);
      if (vote_count < needed) {
        const std::string_view name = record.component.text();
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "%.*s: released %016llx with %d votes (need %d) t=%lld",
                      static_cast<int>(name.size()), name.data(),
                      static_cast<unsigned long long>(record.packet_id),
                      vote_count, needed,
                      static_cast<long long>(record.at_ns));
        report_.note(buf);
      }
      const EgressGroup group = egress_group(record.component);
      egress_hash_ += hash_mix(record.packet_id, group.name_fnv);
      if (config_.check_duplicates) {
        // Prune releases that fell out of the window; forget a mapped
        // time only if no newer release overwrote it.
        while (!release_log_.empty() &&
               record.at_ns - std::get<0>(release_log_.front()) >
                   kDuplicateWindowNs) {
          const auto& [ns, gid, id] = release_log_.front();
          auto& stale = last_release_[gid];
          const auto iit = stale.find(id);
          if (iit != stale.end() && iit->second == ns) stale.erase(iit);
          release_log_.pop_front();
        }
        ++report_.checks;
        auto& per_group = last_release_[group.id];
        const auto it = per_group.find(record.packet_id);
        if (it != per_group.end() &&
            record.at_ns - it->second <= kDuplicateWindowNs) {
          ++duplicates_;
          const std::string_view name = record.component.text();
          char buf[160];
          std::snprintf(
              buf, sizeof buf,
              "%.*s: duplicate egress of %016llx at t=%lld (previous t=%lld)",
              static_cast<int>(name.size()), name.data(),
              static_cast<unsigned long long>(record.packet_id),
              static_cast<long long>(record.at_ns),
              static_cast<long long>(it->second));
          report_.note(buf);
        }
        per_group[record.packet_id] = record.at_ns;
        release_log_.emplace_back(record.at_ns, group.id, record.packet_id);
      }
      break;
    }
    case obs::TraceEvent::kFailoverReroute: {
      ++reroutes_;
      if (!config_.check_duplicates || !config_.audit_reroutes) break;
      // Same duplicate-window audit as egress, keyed by the emitting
      // switch: every detour hop rewrites the VID (new content hash), so
      // a repeat of the same id at the same switch is a genuine loop.
      const EgressGroup group = egress_group(record.component);
      while (!release_log_.empty() &&
             record.at_ns - std::get<0>(release_log_.front()) >
                 kDuplicateWindowNs) {
        const auto& [ns, gid, id] = release_log_.front();
        auto& stale = last_release_[gid];
        const auto iit = stale.find(id);
        if (iit != stale.end() && iit->second == ns) stale.erase(iit);
        release_log_.pop_front();
      }
      ++report_.checks;
      auto& per_group = last_release_[group.id];
      const auto it = per_group.find(record.packet_id);
      if (it != per_group.end() &&
          record.at_ns - it->second <= kDuplicateWindowNs) {
        ++duplicates_;
        const std::string_view name = record.component.text();
        char buf[160];
        std::snprintf(
            buf, sizeof buf,
            "%.*s: reroute loop on %016llx at t=%lld (previous t=%lld)",
            static_cast<int>(name.size()), name.data(),
            static_cast<unsigned long long>(record.packet_id),
            static_cast<long long>(record.at_ns),
            static_cast<long long>(it->second));
        report_.note(buf);
      }
      per_group[record.packet_id] = record.at_ns;
      release_log_.emplace_back(record.at_ns, group.id, record.packet_id);
      break;
    }
    case obs::TraceEvent::kCompareEvictTimeout:
    case obs::TraceEvent::kCompareEvictCapacity:
    case obs::TraceEvent::kCompareEvictQuota:
    case obs::TraceEvent::kCompareExpire: {
      // The cache entry is gone; forget its votes so the map stays
      // bounded by the live cache size.
      votes_.erase(key);
      break;
    }
    case obs::TraceEvent::kHealthQuarantine:
    case obs::TraceEvent::kHealthBan:
      if (record.replica >= 0 && record.replica < 64) {
        quarantined_mask_ |= 1ULL << static_cast<unsigned>(record.replica);
      }
      break;
    case obs::TraceEvent::kHealthReadmit:
      if (record.replica >= 0 && record.replica < 64) {
        quarantined_mask_ &= ~(1ULL << static_cast<unsigned>(record.replica));
      }
      break;
    default:
      break;
  }
}

}  // namespace netco::faultinject
