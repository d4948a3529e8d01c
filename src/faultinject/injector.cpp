#include "faultinject/injector.h"

#include <utility>

#include "adversary/behaviors.h"
#include "common/assert.h"
#include "resilience/resilience.h"

namespace netco::faultinject {

FaultInjector::FaultInjector(topo::Figure3Topology& topo, FaultPlan plan)
    : topo_(topo), plan_(std::move(plan)) {}

void FaultInjector::arm() {
  core::CombinerInstance& combiner = topo_.combiner();
  original_capacity_.clear();
  if (combiner.compare != nullptr) {
    for (const auto* edge : combiner.edges) {
      const core::CompareCore* core = combiner.compare->core_for(edge->name());
      original_capacity_.push_back(
          core != nullptr ? core->config().cache_capacity : 0);
    }
  }
  for (const FaultEvent& event : plan_.events) {
    topo_.simulator().schedule_at(sim::TimePoint::from_ns(event.at_ns),
                                  [this, &event] { apply(event); });
  }
}

void FaultInjector::set_replica_links_down(int replica, bool down) {
  core::CombinerInstance& combiner = topo_.combiner();
  for (auto& per_edge : combiner.edge_replica_link) {
    per_edge[static_cast<std::size_t>(replica)]->set_down(down);
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  core::CombinerInstance& combiner = topo_.combiner();
  const auto for_each_link = [&](auto&& fn) {
    for (std::size_t i = 0; i < combiner.edge_replica_link.size(); ++i) {
      if (event.edge >= 0 && static_cast<std::size_t>(event.edge) != i) {
        continue;
      }
      fn(*combiner.edge_replica_link[i][static_cast<std::size_t>(
          event.replica)]);
    }
  };

  switch (event.kind) {
    case FaultKind::kLinkDown:
      for_each_link([](link::Link& link) { link.set_down(true); });
      break;
    case FaultKind::kLinkUp:
      for_each_link([](link::Link& link) { link.set_down(false); });
      break;
    case FaultKind::kLinkLoss:
      for_each_link(
          [&](link::Link& link) { link.set_loss(event.loss_rate); });
      break;
    case FaultKind::kLinkLatency:
      for_each_link([&](link::Link& link) {
        link.set_extra_latency(
            sim::Duration::nanoseconds(event.extra_latency_ns));
      });
      break;
    case FaultKind::kReplicaCrash:
      set_replica_links_down(event.replica, true);
      break;
    case FaultKind::kReplicaRestart:
      set_replica_links_down(event.replica, false);
      break;
    case FaultKind::kBehaviorSwap: {
      auto* replica = combiner.replicas[static_cast<std::size_t>(
          event.replica)];
      switch (event.behavior) {
        case SwapBehavior::kHonest:
          replica->set_interceptor(nullptr);
          break;
        case SwapBehavior::kDrop:
          interceptors_.push_back(std::make_unique<adversary::DropBehavior>(
              adversary::match_all()));
          replica->set_interceptor(interceptors_.back().get());
          break;
        case SwapBehavior::kCorrupt:
          interceptors_.push_back(
              std::make_unique<adversary::ModifyBehavior>(
                  adversary::match_all(),
                  adversary::ModifyBehavior::corrupt_payload()));
          replica->set_interceptor(interceptors_.back().get());
          break;
        case SwapBehavior::kReroute:
          // Everything goes back toward edge 0 — the §II-1 wrong-port
          // attack. The combiner's anti-spoof screen and the compare's
          // garbage accounting are what should contain it.
          interceptors_.push_back(
              std::make_unique<adversary::RerouteBehavior>(
                  adversary::match_all(),
                  combiner.replica_edge_port[static_cast<std::size_t>(
                      event.replica)][0]));
          replica->set_interceptor(interceptors_.back().get());
          break;
      }
      break;
    }
    case FaultKind::kCompareCrash:
    case FaultKind::kCompareHang:
    case FaultKind::kHubCrash:
    case FaultKind::kHeartbeatLoss: {
      if (resilience_ == nullptr) return;
      const auto recover = sim::Duration::nanoseconds(event.duration_ns);
      switch (event.kind) {
        case FaultKind::kCompareCrash:
          resilience_->compare_crash(recover);
          break;
        case FaultKind::kCompareHang:
          resilience_->compare_hang(recover);
          break;
        case FaultKind::kHubCrash:
          for (std::size_t i = 0; i < combiner.edges.size(); ++i) {
            if (event.edge >= 0 && static_cast<std::size_t>(event.edge) != i) {
              continue;
            }
            resilience_->hub_crash(static_cast<int>(i), recover);
          }
          break;
        case FaultKind::kHeartbeatLoss:
          resilience_->heartbeat_loss(recover);
          break;
        default:
          break;
      }
      break;
    }
    // Fabric faults address fat-tree switches, and routing faults the
    // router position of the convergence diamond, not this circuit; they
    // belong to FabricFaultInjector (fabric_injector.h) and the
    // convergence harness (scenario/convergence.h).
    case FaultKind::kFabricLinkCut:
    case FaultKind::kFabricLinkRestore:
    case FaultKind::kSwitchKill:
    case FaultKind::kSwitchRestart:
    case FaultKind::kRoutePoison:
    case FaultKind::kMetricInflate:
    case FaultKind::kBlackholeAd:
      return;
    case FaultKind::kCacheSqueeze:
    case FaultKind::kCacheRestore: {
      if (combiner.compare == nullptr) return;
      const sim::TimePoint now = topo_.simulator().now();
      for (std::size_t i = 0; i < combiner.edges.size(); ++i) {
        if (event.edge >= 0 && static_cast<std::size_t>(event.edge) != i) {
          continue;
        }
        core::CompareCore* core =
            combiner.compare->core_for(combiner.edges[i]->name());
        if (core == nullptr) continue;
        const std::size_t capacity =
            event.kind == FaultKind::kCacheSqueeze
                ? event.cache_capacity
                : original_capacity_[i];
        core->set_cache_capacity(capacity, now);
      }
      break;
    }
  }
  ++applied_;
}

}  // namespace netco::faultinject
