#include "faultinject/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace netco::faultinject {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkDown: return "link.down";
    case FaultKind::kLinkUp: return "link.up";
    case FaultKind::kLinkLoss: return "link.loss";
    case FaultKind::kLinkLatency: return "link.latency";
    case FaultKind::kReplicaCrash: return "replica.crash";
    case FaultKind::kReplicaRestart: return "replica.restart";
    case FaultKind::kBehaviorSwap: return "behavior.swap";
    case FaultKind::kCacheSqueeze: return "cache.squeeze";
    case FaultKind::kCacheRestore: return "cache.restore";
    case FaultKind::kCompareCrash: return "compare.crash";
    case FaultKind::kCompareHang: return "compare.hang";
    case FaultKind::kHubCrash: return "hub.crash";
    case FaultKind::kHeartbeatLoss: return "heartbeat.loss";
    case FaultKind::kRoutePoison: return "routing.poison";
    case FaultKind::kMetricInflate: return "routing.inflate";
    case FaultKind::kBlackholeAd: return "routing.blackhole";
    case FaultKind::kFabricLinkCut: return "link.cut";
    case FaultKind::kFabricLinkRestore: return "link.restore";
    case FaultKind::kSwitchKill: return "switch.kill";
    case FaultKind::kSwitchRestart: return "switch.restart";
  }
  return "unknown";
}

const char* to_string(SwapBehavior behavior) noexcept {
  switch (behavior) {
    case SwapBehavior::kHonest: return "honest";
    case SwapBehavior::kDrop: return "drop";
    case SwapBehavior::kCorrupt: return "corrupt";
    case SwapBehavior::kReroute: return "reroute";
  }
  return "unknown";
}

std::string FaultPlan::to_json() const {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const int n = std::snprintf(
        buf, sizeof buf,
        "%s\n{\"t\":%lld,\"kind\":\"%s\",\"edge\":%d,\"replica\":%d,"
        "\"loss\":%.4f,\"latency_ns\":%lld,\"capacity\":%zu,"
        "\"behavior\":\"%s\",\"duration_ns\":%lld,"
        "\"node\":%d,\"peer\":%d}",
        i == 0 ? "" : ",", static_cast<long long>(e.at_ns),
        to_string(e.kind), e.edge, e.replica, e.loss_rate,
        static_cast<long long>(e.extra_latency_ns), e.cache_capacity,
        to_string(e.behavior), static_cast<long long>(e.duration_ns), e.node,
        e.peer);
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += "\n]";
  return out;
}

namespace {

/// Inverse of to_string(FaultKind), by exhaustive lookup: a new kind that
/// misses this table fails the round-trip test, not a disaster restore.
std::optional<FaultKind> kind_from_string(const char* name) {
  static constexpr FaultKind kAll[] = {
      FaultKind::kLinkDown,      FaultKind::kLinkUp,
      FaultKind::kLinkLoss,      FaultKind::kLinkLatency,
      FaultKind::kReplicaCrash,  FaultKind::kReplicaRestart,
      FaultKind::kBehaviorSwap,  FaultKind::kCacheSqueeze,
      FaultKind::kCacheRestore,  FaultKind::kCompareCrash,
      FaultKind::kCompareHang,   FaultKind::kHubCrash,
      FaultKind::kHeartbeatLoss, FaultKind::kRoutePoison,
      FaultKind::kMetricInflate, FaultKind::kBlackholeAd,
      FaultKind::kFabricLinkCut, FaultKind::kFabricLinkRestore,
      FaultKind::kSwitchKill,    FaultKind::kSwitchRestart,
  };
  for (const FaultKind kind : kAll) {
    if (std::strcmp(name, to_string(kind)) == 0) return kind;
  }
  return std::nullopt;
}

std::optional<SwapBehavior> behavior_from_string(const char* name) {
  static constexpr SwapBehavior kAll[] = {
      SwapBehavior::kHonest, SwapBehavior::kDrop, SwapBehavior::kCorrupt,
      SwapBehavior::kReroute};
  for (const SwapBehavior behavior : kAll) {
    if (std::strcmp(name, to_string(behavior)) == 0) return behavior;
  }
  return std::nullopt;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::from_json(const std::string& json) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t nl = json.find('\n', pos);
    if (nl == std::string::npos) nl = json.size();
    std::string line = json.substr(pos, nl - pos);
    pos = nl + 1;
    // Event records are one per line, '{'-first; strip the separator
    // to_json() appends to the following line.
    if (line.empty() || line[0] != '{') continue;
    if (!line.empty() && line.back() == ',') line.pop_back();

    FaultEvent e;
    long long t = 0, latency = 0, duration = 0;
    double loss = 0.0;
    std::size_t capacity = 0;
    char kind[64] = {0};
    char behavior[64] = {0};
    const int n = std::sscanf(
        line.c_str(),
        "{\"t\":%lld,\"kind\":\"%63[^\"]\",\"edge\":%d,\"replica\":%d,"
        "\"loss\":%lf,\"latency_ns\":%lld,\"capacity\":%zu,"
        "\"behavior\":\"%63[^\"]\",\"duration_ns\":%lld,"
        "\"node\":%d,\"peer\":%d}",
        &t, kind, &e.edge, &e.replica, &loss, &latency, &capacity, behavior,
        &duration, &e.node, &e.peer);
    if (n != 11) return std::nullopt;
    const auto parsed_kind = kind_from_string(kind);
    const auto parsed_behavior = behavior_from_string(behavior);
    // Reject loudly: a silent nullopt on a typo'd kind looks exactly like
    // an empty artifact, and the run proceeds fault-free.
    if (!parsed_kind) {
      std::fprintf(stderr,
                   "FaultPlan::from_json: unknown fault kind \"%s\"\n", kind);
      return std::nullopt;
    }
    if (!parsed_behavior) {
      std::fprintf(stderr,
                   "FaultPlan::from_json: unknown swap behavior \"%s\"\n",
                   behavior);
      return std::nullopt;
    }
    e.at_ns = t;
    e.kind = *parsed_kind;
    e.loss_rate = loss;
    e.extra_latency_ns = latency;
    e.cache_capacity = capacity;
    e.behavior = *parsed_behavior;
    e.duration_ns = duration;
    plan.events.push_back(e);
  }
  plan.normalize();
  return plan;
}

void FaultPlan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_ns < b.at_ns;
                   });
}

namespace {

/// Draws an apply/revert window inside [lo, hi): at least min_len long,
/// reverting strictly before hi.
std::pair<std::int64_t, std::int64_t> draw_window(Rng& rng, std::int64_t lo,
                                                  std::int64_t hi,
                                                  std::int64_t min_len) {
  const std::int64_t a = rng.uniform_i64(lo, hi - min_len - 1);
  const std::int64_t b = rng.uniform_i64(a + min_len, hi - 1);
  return {a, b};
}

}  // namespace

FaultPlan FaultPlan::random(std::uint64_t seed,
                            const FaultPlanParams& params) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed);
  const std::int64_t lo = params.start.ns();
  const std::int64_t hi = params.horizon.ns();
  if (hi <= lo) return plan;
  const std::int64_t min_len = std::max<std::int64_t>((hi - lo) / 64, 1);

  const auto pick_edge = [&] {
    return static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(params.edges)));
  };
  const auto pick_replica = [&] {
    return static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(params.k)));
  };

  // Single-link impairments may overlap freely: they only thin one copy
  // stream, never a whole replica.
  for (int i = 0; i < params.link_blips; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    const int edge = pick_edge();
    const int replica = pick_replica();
    plan.events.push_back({a, FaultKind::kLinkDown, edge, replica, 0, 0, 0,
                           SwapBehavior::kHonest});
    plan.events.push_back({b, FaultKind::kLinkUp, edge, replica, 0, 0, 0,
                           SwapBehavior::kHonest});
  }
  for (int i = 0; i < params.loss_bursts; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    const int edge = pick_edge();
    const int replica = pick_replica();
    const double rate = rng.uniform(0.01, params.max_loss);
    plan.events.push_back({a, FaultKind::kLinkLoss, edge, replica, rate, 0,
                           0, SwapBehavior::kHonest});
    plan.events.push_back({b, FaultKind::kLinkLoss, edge, replica, 0.0, 0,
                           0, SwapBehavior::kHonest});
  }
  for (int i = 0; i < params.latency_ramps; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    const int edge = pick_edge();
    const int replica = pick_replica();
    const std::int64_t extra =
        rng.uniform_i64(1000, std::max<std::int64_t>(
                                  params.max_extra_latency.ns(), 2000));
    plan.events.push_back({a, FaultKind::kLinkLatency, edge, replica, 0,
                           extra, 0, SwapBehavior::kHonest});
    plan.events.push_back({b, FaultKind::kLinkLatency, edge, replica, 0, 0,
                           0, SwapBehavior::kHonest});
  }

  // Whole-replica impairments (crash or byzantine swap) get disjoint time
  // slots: with at most one replica impaired, an honest majority survives
  // every instant of the plan for k >= 3.
  const int whole = params.replica_crashes + params.behavior_swaps;
  if (whole > 0) {
    const std::int64_t slot = (hi - lo) / whole;
    static constexpr SwapBehavior kSwaps[] = {
        SwapBehavior::kDrop, SwapBehavior::kCorrupt, SwapBehavior::kReroute};
    for (int i = 0; i < whole; ++i) {
      const std::int64_t slot_lo = lo + slot * i;
      const std::int64_t slot_hi = slot_lo + slot;
      if (slot_hi - slot_lo <= 2 * min_len) continue;
      const auto [a, b] = draw_window(rng, slot_lo, slot_hi, min_len);
      const int replica = pick_replica();
      if (i < params.replica_crashes) {
        plan.events.push_back({a, FaultKind::kReplicaCrash, -1, replica, 0,
                               0, 0, SwapBehavior::kHonest});
        plan.events.push_back({b, FaultKind::kReplicaRestart, -1, replica,
                               0, 0, 0, SwapBehavior::kHonest});
      } else {
        const SwapBehavior swap = kSwaps[rng.uniform_u64(3)];
        plan.events.push_back({a, FaultKind::kBehaviorSwap, -1, replica, 0,
                               0, 0, swap});
        plan.events.push_back({b, FaultKind::kBehaviorSwap, -1, replica, 0,
                               0, 0, SwapBehavior::kHonest});
      }
    }
  }

  for (int i = 0; i < params.cache_squeezes; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    plan.events.push_back({a, FaultKind::kCacheSqueeze, -1, 0, 0, 0,
                           params.squeeze_capacity, SwapBehavior::kHonest});
    plan.events.push_back({b, FaultKind::kCacheRestore, -1, 0, 0, 0, 0,
                           SwapBehavior::kHonest});
  }

  // Trusted-component faults: one event carrying its recovery delay
  // (duration_ns) instead of an explicit revert twin — the resilience
  // manager owns the recovery schedule.
  for (int i = 0; i < params.compare_crashes; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    plan.events.push_back({a, FaultKind::kCompareCrash, -1, 0, 0, 0, 0,
                           SwapBehavior::kHonest, b - a});
  }
  for (int i = 0; i < params.compare_hangs; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    plan.events.push_back({a, FaultKind::kCompareHang, -1, 0, 0, 0, 0,
                           SwapBehavior::kHonest, b - a});
  }
  for (int i = 0; i < params.hub_crashes; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    plan.events.push_back({a, FaultKind::kHubCrash, pick_edge(), 0, 0, 0, 0,
                           SwapBehavior::kHonest, b - a});
  }
  for (int i = 0; i < params.heartbeat_losses; ++i) {
    const auto [a, b] = draw_window(rng, lo, hi, min_len);
    plan.events.push_back({a, FaultKind::kHeartbeatLoss, -1, 0, 0, 0, 0,
                           SwapBehavior::kHonest, b - a});
  }

  plan.normalize();
  return plan;
}

}  // namespace netco::faultinject
