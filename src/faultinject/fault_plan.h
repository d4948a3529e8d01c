// FaultPlan: a seeded, serializable schedule of fault events.
//
// Reliability claims about the combiner ("zero invariant violations under
// churn") are only as strong as the churn they were tested against, and
// only debuggable if the churn is reproducible. A FaultPlan pins both: it
// is generated from a seed up front, can be serialized for the bench
// artifact, and is executed through the simulator's event queue — so a
// soak run under faults is exactly as bit-reproducible as a clean run.
//
// The event vocabulary covers the failure modes the paper's threat model
// and evaluation exercise: link cuts and recoveries (§V availability),
// lossy / slow links, whole-replica crashes and restarts, byzantine
// behaviour swaps (§II attack classes via src/adversary), and compare
// cache-pressure squeezes (§V-B memory churn).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace netco::faultinject {

/// What a single fault event does.
enum class FaultKind : std::uint8_t {
  kLinkDown,        ///< cut one edge↔replica link
  kLinkUp,          ///< restore it
  kLinkLoss,        ///< set a random-loss rate on a link (0 restores)
  kLinkLatency,     ///< add one-way latency to a link (0 restores)
  kReplicaCrash,    ///< cut every link of one replica
  kReplicaRestart,  ///< restore every link of one replica
  kBehaviorSwap,    ///< install a byzantine datapath behaviour on a replica
  kCacheSqueeze,    ///< shrink the compare cache capacity (memory pressure)
  kCacheRestore,    ///< restore the original compare cache capacity
  // Trusted-component faults (delegated to resilience::ResilienceManager;
  // skipped when no manager is wired up).
  kCompareCrash,    ///< kill the compare process — in-memory state lost
  kCompareHang,     ///< wedge the compare process — memory intact
  kHubCrash,        ///< remove an edge's fan-out rule (-1 = every edge)
  kHeartbeatLoss,   ///< partition the heartbeat path (primary stays live)
  // Control-plane attacks on RIP announcements (src/routing, DESIGN §15).
  kRoutePoison,     ///< replica advertises false low metrics (all → 0)
  kMetricInflate,   ///< replica inflates every advertised metric (+8, cap 16)
  kBlackholeAd,     ///< poisoned announcements + attracted data dropped
  // Fabric faults on the fat-tree itself (DESIGN §16). These address
  // switches by topology id (FaultEvent::node/peer), not combiner edge/
  // replica indexes — the existing kLinkDown/kLinkUp names stay reserved
  // for edge↔replica links.
  kFabricLinkCut,      ///< cut the fabric link node↔peer ("link.cut")
  kFabricLinkRestore,  ///< restore it ("link.restore")
  kSwitchKill,         ///< kill a fabric switch: all its links down
  kSwitchRestart,      ///< restore every link of a killed fabric switch
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Datapath behaviour installed by kBehaviorSwap (see src/adversary).
enum class SwapBehavior : std::uint8_t {
  kHonest,   ///< remove any installed behaviour
  kDrop,     ///< silently delete all traffic (§II-3/4)
  kCorrupt,  ///< flip payload bytes in flight (§II-3)
  kReroute,  ///< forward everything to the wrong edge (§II-1)
};

[[nodiscard]] const char* to_string(SwapBehavior behavior) noexcept;

/// One scheduled fault.
struct FaultEvent {
  std::int64_t at_ns = 0;             ///< simulated time to fire
  FaultKind kind = FaultKind::kLinkDown;
  int edge = -1;                      ///< edge index, -1 = every edge
  int replica = 0;                    ///< replica index (link/replica faults)
  double loss_rate = 0.0;             ///< kLinkLoss
  std::int64_t extra_latency_ns = 0;  ///< kLinkLatency
  std::size_t cache_capacity = 0;     ///< kCacheSqueeze
  SwapBehavior behavior = SwapBehavior::kHonest;  ///< kBehaviorSwap
  /// Recovery delay for the trusted-component kinds (crash → restart,
  /// hang → resume, hub crash → reinstall, heartbeat loss → restore);
  /// 0 = no scheduled recovery. Appended last so existing positional
  /// initializers stay valid.
  std::int64_t duration_ns = 0;
  /// Fabric-fault addressing (kFabricLink*/kSwitch*): topology switch ids
  /// per topo::FatTreeTopology::switch_by_sid. `node` is the switch the
  /// fault targets; `peer` the other endpoint for link faults (-1 for
  /// switch faults). Appended after duration_ns for the same reason.
  int node = -1;
  int peer = -1;
};

/// Knobs for FaultPlan::random().
struct FaultPlanParams {
  int k = 3;      ///< replicas in the circuit
  int edges = 2;  ///< trusted edges (Fig. 3 has two)
  /// Faults are drawn inside [start, horizon); recoveries are scheduled
  /// before the horizon so the run ends with a healthy plant.
  sim::Duration start = sim::Duration::milliseconds(100);
  sim::Duration horizon = sim::Duration::seconds(2);
  int link_blips = 4;       ///< down/up pairs on single links
  int loss_bursts = 3;      ///< loss-rate set/clear pairs
  int latency_ramps = 2;    ///< extra-latency set/clear pairs
  int replica_crashes = 1;  ///< crash/restart pairs
  int behavior_swaps = 1;   ///< byzantine/honest pairs
  int cache_squeezes = 1;   ///< squeeze/restore pairs
  /// Trusted-component faults (default 0: plans without a resilience
  /// manager are byte-identical to plans generated before these existed).
  int compare_crashes = 0;   ///< compare kill + scheduled warm restart
  int compare_hangs = 0;     ///< compare wedge + scheduled resume
  int hub_crashes = 0;       ///< fan-out rule removal + reinstall
  int heartbeat_losses = 0;  ///< monitoring-path partitions
  double max_loss = 0.3;
  sim::Duration max_extra_latency = sim::Duration::microseconds(200);
  std::size_t squeeze_capacity = 64;
};

/// The full schedule. Events are kept sorted by time (ties keep insertion
/// order, which random() makes deterministic).
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// Canonical one-line-per-event JSON array (stable field order), for the
  /// bench artifact and for byte-comparing plans across runs.
  [[nodiscard]] std::string to_json() const;

  /// Parses a to_json() rendering back into a plan (the seed is not part
  /// of the JSON and comes back 0). Every event record must carry all
  /// eleven fields; std::nullopt on any malformed event line.
  static std::optional<FaultPlan> from_json(const std::string& json);

  /// Sorts events by time, keeping the relative order of simultaneous
  /// events (random() already emits sorted plans; hand-built ones call
  /// this before arming).
  void normalize();

  /// Draws a plan from a seed. Crash and behaviour-swap windows are
  /// allocated in disjoint time slots so at most one replica is impaired
  /// at any instant — a k>=3 majority quorum stays reachable throughout,
  /// which is what lets the soak demand zero invariant violations.
  static FaultPlan random(std::uint64_t seed, const FaultPlanParams& params);
};

}  // namespace netco::faultinject
