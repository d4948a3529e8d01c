#include "health/service.h"

#include "common/assert.h"

namespace netco::health {

namespace {

/// Probation probe cadence: every kProbePeriod the fan-out opens to
/// quarantined replicas for kProbeWindow.
constexpr sim::Duration kProbePeriod = sim::Duration::milliseconds(20);
constexpr sim::Duration kProbeWindow = sim::Duration::milliseconds(4);

}  // namespace

QuarantineManager::QuarantineManager(sim::Simulator& simulator,
                                     core::CombinerInstance& combiner)
    : simulator_(simulator), combiner_(combiner) {}

void QuarantineManager::install_fanout(bool probe_open) {
  const int k = static_cast<int>(combiner_.replicas.size());
  for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
    std::vector<device::PortIndex> ports;
    ports.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const std::uint64_t b = bit(j);
      const bool include =
          (quarantined_mask_ & b) == 0
              ? true
              : probe_open && (banned_mask_ & b) == 0;
      if (include) {
        ports.push_back(
            combiner_.edge_replica_port[i][static_cast<std::size_t>(j)]);
      }
    }
    core::install_hub_rules(*combiner_.edges[i],
                            combiner_.edge_neighbor_port[i], ports);
  }
}

void QuarantineManager::set_live(int replica, bool live) {
  if (combiner_.compare == nullptr) return;
  for (const auto* edge : combiner_.edges) {
    core::CompareCore* core = combiner_.compare->core_for(edge->name());
    if (core != nullptr) {
      core->set_replica_live(replica, live, simulator_.now());
    }
  }
  // A warm standby shadows the primary's quorum rules: keep its live set
  // in lockstep so a failover inherits the current quarantine picture.
  for (core::CompareCore* core : combiner_.shadow_cores) {
    if (core != nullptr) {
      core->set_replica_live(replica, live, simulator_.now());
    }
  }
}

void QuarantineManager::quarantine(int replica) {
  quarantined_mask_ |= bit(replica);
  install_fanout(false);
  set_live(replica, false);
  arm_probe_cycle();
}

void QuarantineManager::readmit(int replica) {
  quarantined_mask_ &= ~bit(replica);
  install_fanout(false);
  set_live(replica, true);
}

void QuarantineManager::ban(int replica) {
  banned_mask_ |= bit(replica);
  quarantined_mask_ |= bit(replica);
  install_fanout(false);
  set_live(replica, false);
}

void QuarantineManager::arm_probe_cycle() {
  if (cycle_armed_) return;
  cycle_armed_ = true;
  simulator_.schedule_after(kProbePeriod, [this] { open_probe_window(); });
}

void QuarantineManager::open_probe_window() {
  // Only quarantined-but-not-banned replicas are probed; with none left
  // the cycle disarms (re-armed by the next quarantine).
  if ((quarantined_mask_ & ~banned_mask_) == 0) {
    cycle_armed_ = false;
    return;
  }
  ++probe_windows_;
  install_fanout(true);
  simulator_.schedule_after(kProbeWindow, [this] { install_fanout(false); });
  simulator_.schedule_after(kProbePeriod, [this] { open_probe_window(); });
}

HealthService::HealthService(sim::Simulator& simulator,
                             core::CombinerInstance& combiner,
                             const HealthConfig& config)
    : simulator_(simulator),
      combiner_(combiner),
      monitor_(config, static_cast<int>(combiner.replicas.size())),
      manager_(simulator, combiner),
      obs_(&obs::global()),
      verdict_counter_(&obs_->metrics.counter("health.verdicts")),
      quarantine_counter_(&obs_->metrics.counter("health.quarantines")),
      readmit_counter_(&obs_->metrics.counter("health.readmits")),
      ban_counter_(&obs_->metrics.counter("health.bans")) {
  NETCO_ASSERT(combiner_.compare != nullptr);
  for (const auto* edge : combiner_.edges) {
    core::CompareCore* core = combiner_.compare->core_for(edge->name());
    if (core != nullptr) {
      core->set_verdict_sink(this);
      edge_cores_.push_back(core);
    }
  }
}

HealthService::~HealthService() {
  if (combiner_.compare == nullptr) return;
  for (const auto* edge : combiner_.edges) {
    core::CompareCore* core = combiner_.compare->core_for(edge->name());
    if (core != nullptr) core->set_verdict_sink(nullptr);
  }
}

void HealthService::on_verdict(const core::ReplicaVerdict& verdict) {
  verdict_counter_->inc();
  monitor_.on_verdict(verdict);
  for (const HealthAction& action : monitor_.take_actions()) {
    apply(action);
  }
  // Actions only ever concern the verdict's own replica, so one export
  // after the action loop reflects both the score move and any state
  // transition it caused.
  push_weight(verdict.replica);
}

void HealthService::push_weight(int replica) {
  const double w = monitor_.weight(replica);
  for (core::CompareCore* core : edge_cores_) {
    core->set_replica_weight(replica, w);
  }
  for (core::CompareCore* core : combiner_.shadow_cores) {
    if (core != nullptr) core->set_replica_weight(replica, w);
  }
}

void HealthService::apply(const HealthAction& action) {
  obs::TraceEvent event = obs::TraceEvent::kHealthQuarantine;
  switch (action.kind) {
    case HealthAction::Kind::kQuarantine:
      manager_.quarantine(action.replica);
      quarantine_counter_->inc();
      if (first_quarantine_ns_ < 0) first_quarantine_ns_ = action.at.ns();
      event = obs::TraceEvent::kHealthQuarantine;
      break;
    case HealthAction::Kind::kReadmit:
      manager_.readmit(action.replica);
      readmit_counter_->inc();
      if (first_readmit_ns_ < 0) first_readmit_ns_ = action.at.ns();
      event = obs::TraceEvent::kHealthReadmit;
      break;
    case HealthAction::Kind::kBan:
      manager_.ban(action.replica);
      ban_counter_->inc();
      event = obs::TraceEvent::kHealthBan;
      break;
  }
  obs::Tracer& tracer = obs_->tracer;
  if (tracer.enabled()) {
    // bytes carries the EWMA score in milli-units — enough resolution to
    // reconstruct the decision from the trace alone.
    tracer.emit(action.at.ns(), event, 0, "health", action.replica,
                static_cast<std::uint32_t>(action.score * 1000.0));
  }
}

HealthSummary HealthService::summary() const noexcept {
  HealthSummary s;
  s.quarantines = quarantine_counter_->value();
  s.readmits = readmit_counter_->value();
  s.bans = ban_counter_->value();
  s.probe_windows = manager_.probe_windows();
  s.first_quarantine_ns = first_quarantine_ns_;
  s.first_readmit_ns = first_readmit_ns_;
  return s;
}

}  // namespace netco::health
