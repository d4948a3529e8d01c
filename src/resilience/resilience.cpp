#include "resilience/resilience.h"

#include <cmath>
#include <utility>

#include "common/assert.h"

namespace netco::resilience {

namespace {

/// kFailStatic pre-installs *below* the edge layout's punt rule
/// (core::kPuntPriority) — invisible until the punt rule is removed.
constexpr std::uint16_t kFailStaticPriority = 15;

/// How often every edge core is checkpointed.
constexpr sim::Duration kCheckpointPeriod = sim::Duration::milliseconds(25);
/// Ingress-mirror latency into the standby's shadow cores (models the
/// port-mirror / second packet-in path).
constexpr sim::Duration kMirrorLatency = sim::Duration::microseconds(20);
/// Time from declare-dead to the standby being live (feeder rewiring);
/// also the rewire latency of kFailOpenSingle.
constexpr sim::Duration kPromoteLatency = sim::Duration::microseconds(200);
/// The replica kFailOpenSingle / kFailStatic pass through.
constexpr std::size_t kDesignatedReplica = 0;

sim::Duration scaled(sim::Duration base, double factor) {
  return sim::Duration::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(base.ns()) * factor));
}

}  // namespace

const char* to_string(DegradedPolicy policy) noexcept {
  switch (policy) {
    case DegradedPolicy::kFailClosed: return "fail_closed";
    case DegradedPolicy::kFailOpenSingle: return "fail_open_single";
    case DegradedPolicy::kFailStatic: return "fail_static";
  }
  return "?";
}

// --- StandbyCompare ----------------------------------------------------

StandbyCompare::StandbyCompare(sim::Simulator& simulator,
                               core::CombinerInstance& combiner)
    : simulator_(simulator), combiner_(combiner) {
  NETCO_ASSERT(combiner_.compare != nullptr);
  combiner_.shadow_cores.clear();
  for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
    openflow::OpenFlowSwitch* edge = combiner_.edges[i];
    core::CompareCore* primary = combiner_.compare->core_for(edge->name());
    NETCO_ASSERT(primary != nullptr);

    auto shadow = std::make_unique<EdgeShadow>(primary->config());
    shadow->edge = edge;
    shadow->core.set_trace_label("standby/" + edge->name());
    shadow->core.set_shadow(true);
    for (std::size_t j = 0; j < combiner_.edge_replica_port[i].size(); ++j) {
      shadow->replica_ports[combiner_.edge_replica_port[i][j]] =
          static_cast<int>(j);
    }
    combiner_.shadow_cores.push_back(&shadow->core);
    shadows_.push_back(std::move(shadow));

    // The mirror feed: the tap fires for every ingress packet *before*
    // the blocked-port check and the flow table, so the handler filters
    // both itself (see on_ingress).
    edge->set_ingress_tap(
        [this, i](device::PortIndex in_port, const net::Packet& packet) {
          on_ingress(i, in_port, packet);
        });
    schedule_sweep(i);
  }
}

StandbyCompare::~StandbyCompare() {
  combiner_.shadow_cores.clear();
  for (auto& shadow : shadows_) {
    shadow->edge->set_ingress_tap({});
  }
}

void StandbyCompare::on_ingress(std::size_t edge_idx,
                                device::PortIndex in_port,
                                const net::Packet& packet) {
  EdgeShadow& shadow = *shadows_[edge_idx];
  // Parity with the primary's view: a blocked port never produces a
  // packet-in, so it must not feed the shadow either.
  if (shadow.edge->port_blocked(in_port)) return;
  const auto it = shadow.replica_ports.find(in_port);
  if (it == shadow.replica_ports.end()) return;  // neighbor side, not a copy
  const int replica = it->second;
  simulator_.schedule_after(
      kMirrorLatency, [this, edge_idx, replica, p = packet]() mutable {
        deliver(edge_idx, replica, std::move(p));
      });
}

void StandbyCompare::deliver(std::size_t edge_idx, int replica,
                             net::Packet packet) {
  EdgeShadow& shadow = *shadows_[edge_idx];
  auto released =
      shadow.core.ingest(replica, std::move(packet), simulator_.now());
  if (released && promoted_) {
    // Same egress path as the primary: packet-out with OFPP_TABLE, so the
    // trusted edge forwards by its MAC table.
    shadow.edge->receive_packet_out(openflow::PacketOut{
        .actions = {openflow::OutputAction::table()},
        .packet = std::move(*released),
        .in_port = device::kNoPort});
  }
}

void StandbyCompare::schedule_sweep(std::size_t edge_idx) {
  EdgeShadow& shadow = *shadows_[edge_idx];
  const sim::Duration period = shadow.core.config().hold_timeout / 2;
  simulator_.schedule_after(period, [this, edge_idx] {
    EdgeShadow& s = *shadows_[edge_idx];
    s.core.sweep(simulator_.now());
    // The standby has no control channel; block/inactivity advice is the
    // primary's job (and the health loop's). Drain it so it cannot pile up.
    (void)s.core.take_advice();
    schedule_sweep(edge_idx);
  });
}

void StandbyCompare::promote() {
  promoted_ = true;
  for (auto& shadow : shadows_) shadow->core.set_shadow(false);
}

std::uint64_t StandbyCompare::shadow_releases() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shadow : shadows_) {
    total += shadow->core.stats().shadow_releases;
  }
  return total;
}

core::CompareCore* StandbyCompare::core_for(std::size_t edge_idx) noexcept {
  return edge_idx < shadows_.size() ? &shadows_[edge_idx]->core : nullptr;
}

// --- ResilienceManager -------------------------------------------------

ResilienceManager::ResilienceManager(sim::Simulator& simulator,
                                     core::CombinerInstance& combiner,
                                     ResilienceConfig config)
    : simulator_(simulator),
      combiner_(combiner),
      config_(config),
      obs_(&obs::global()),
      checkpoint_counter_(&obs_->metrics.counter("resilience.checkpoints")),
      failover_counter_(&obs_->metrics.counter("resilience.failovers")),
      miss_counter_(&obs_->metrics.counter("resilience.heartbeat_misses")),
      degraded_counter_(&obs_->metrics.counter("resilience.degraded_entries")) {
  NETCO_ASSERT(combiner_.compare != nullptr);
  checkpoints_.resize(combiner_.edges.size());

  if (config_.standby) {
    standby_ = std::make_unique<StandbyCompare>(simulator_, combiner_);
  } else if (config_.policy == DegradedPolicy::kFailStatic) {
    // Pre-install the static failover rules now, below the punt rule.
    // They carry no traffic until a declared outage removes the punt —
    // the switch's fail-standalone fallback, staged in advance.
    for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
      openflow::FlowSpec spec;
      spec.match.with_in_port(
          combiner_.edge_replica_port[i][kDesignatedReplica]);
      spec.actions = {
          openflow::OutputAction::to(combiner_.edge_neighbor_port[i])};
      spec.priority = kFailStaticPriority;
      combiner_.edges[i]->table().add(std::move(spec));
    }
  }

  // Checkpoint 0: a crash before the first periodic round must still find
  // something to restore from.
  take_checkpoint();
  simulator_.schedule_after(kCheckpointPeriod,
                            [this] { checkpoint_tick(); });
  simulator_.schedule_after(config_.heartbeat_period,
                            [this] { heartbeat_tick(); });
}

void ResilienceManager::trace(obs::TraceEvent event, int replica,
                              std::uint64_t count) {
  obs::Tracer& tracer = obs_->tracer;
  if (tracer.enabled()) {
    tracer.emit(simulator_.now().ns(), event, 0, "resilience", replica,
                static_cast<std::uint32_t>(count));
  }
}

void ResilienceManager::take_checkpoint() {
  for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
    core::CompareCore* core =
        combiner_.compare->core_for(combiner_.edges[i]->name());
    if (core == nullptr) continue;
    checkpoints_[i] = core->snapshot();
    trace(obs::TraceEvent::kResilienceCheckpoint, static_cast<int>(i),
          checkpoints_[i].entries.size());
  }
  checkpoint_counter_->inc();
}

void ResilienceManager::checkpoint_tick() {
  if (!monitoring_) return;  // failover happened; the primary is history
  if (combiner_.compare->process_state() ==
      core::CompareService::ProcessState::kLive) {
    take_checkpoint();
  }
  simulator_.schedule_after(kCheckpointPeriod,
                            [this] { checkpoint_tick(); });
}

void ResilienceManager::heartbeat_tick() {
  if (!monitoring_) return;
  const bool responsive =
      !heartbeat_suppressed_ &&
      combiner_.compare->process_state() ==
          core::CompareService::ProcessState::kLive;
  sim::Duration next = config_.heartbeat_period;
  if (responsive) {
    misses_ = 0;
  } else {
    ++misses_;
    miss_counter_->inc();
    trace(obs::TraceEvent::kResilienceHeartbeatMiss, misses_, 0);
    if (misses_ >= config_.heartbeat_miss_threshold && !dead_declared_) {
      dead_declared_ = true;
      on_declared_dead();
    }
    // Exponential backoff between probes: each consecutive miss widens
    // the spacing, giving a merely-stalled process progressively more
    // time to answer before the threshold is crossed.
    next = scaled(config_.heartbeat_period,
                  std::pow(config_.backoff_factor, misses_));
  }
  simulator_.schedule_after(next, [this] { heartbeat_tick(); });
}

void ResilienceManager::begin_outage() {
  if (outage_open_) return;
  outage_open_ = true;
  outage_start_ns_ = simulator_.now().ns();
  shadow_mark_ = standby_ != nullptr ? standby_->shadow_releases() : 0;
}

void ResilienceManager::on_declared_dead() {
  if (standby_ != nullptr && !standby_->promoted()) {
    simulator_.schedule_after(kPromoteLatency,
                              [this] { do_promote(); });
  } else if (standby_ == nullptr) {
    enter_degraded();
  }
}

void ResilienceManager::do_promote() {
  // Measure liveness *before* fencing: a heartbeat false positive
  // promotes over a healthy primary, which kept releasing until this
  // instant — its releases are not gap loss.
  const bool primary_was_live =
      combiner_.compare->process_state() ==
      core::CompareService::ProcessState::kLive;
  // Fence first, then promote: at no instant can both release.
  combiner_.compare->set_process_state(
      core::CompareService::ProcessState::kRetired);
  standby_->promote();
  failover_counter_->inc();
  monitoring_ = false;  // the fenced primary is no longer watched

  std::uint64_t gap = 0;
  if (outage_open_) {
    time_to_failover_ns_ = simulator_.now().ns() - outage_start_ns_;
    if (!primary_was_live) {
      gap = standby_->shadow_releases() - shadow_mark_;
      gap_loss_ += gap;
    }
    outage_open_ = false;
  }
  trace(obs::TraceEvent::kResilienceFailover, -1, gap);
}

void ResilienceManager::compare_crash(sim::Duration recover_after) {
  if (combiner_.compare->process_state() ==
      core::CompareService::ProcessState::kRetired) {
    return;  // crashing the fenced old primary changes nothing
  }
  begin_outage();
  combiner_.compare->set_process_state(
      core::CompareService::ProcessState::kCrashed);
  trace(obs::TraceEvent::kResilienceCrash, -1, 0);
  if (recover_after > sim::Duration::zero()) {
    simulator_.schedule_after(recover_after, [this] { restart_primary(); });
  }
}

void ResilienceManager::compare_hang(sim::Duration recover_after) {
  if (combiner_.compare->process_state() ==
      core::CompareService::ProcessState::kRetired) {
    return;
  }
  begin_outage();
  combiner_.compare->set_process_state(
      core::CompareService::ProcessState::kHung);
  trace(obs::TraceEvent::kResilienceHang, -1, 0);
  if (recover_after > sim::Duration::zero()) {
    simulator_.schedule_after(recover_after, [this] { restart_primary(); });
  }
}

void ResilienceManager::restart_primary() {
  const auto state = combiner_.compare->process_state();
  if (state == core::CompareService::ProcessState::kRetired) {
    // A failover won the race while we were down. The old primary must
    // never release again — it stays fenced.
    return;
  }
  std::size_t restored = 0;
  if (state == core::CompareService::ProcessState::kCrashed) {
    // Warm restart: the crash lost the in-memory state; rebuild every
    // core from its last checkpoint. restore() taints unreleased entries
    // so a post-restart quorum on them is suppressed, never re-released.
    for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
      core::CompareCore* core =
          combiner_.compare->core_for(combiner_.edges[i]->name());
      if (core == nullptr) continue;
      core->restore(checkpoints_[i], simulator_.now());
      restored += checkpoints_[i].entries.size();
    }
  }
  // A hang kept its memory: becoming live again is the whole recovery.
  combiner_.compare->set_process_state(
      core::CompareService::ProcessState::kLive);
  trace(obs::TraceEvent::kResilienceRestore, -1, restored);
  outage_open_ = false;
  dead_declared_ = false;
  misses_ = 0;
  if (degraded_) exit_degraded();
}

void ResilienceManager::enter_degraded() {
  degraded_ = true;
  degraded_counter_->inc();
  const std::uint64_t epoch = ++degraded_epoch_;
  trace(obs::TraceEvent::kResilienceDegradedEnter,
        static_cast<int>(config_.policy), 0);

  switch (config_.policy) {
    case DegradedPolicy::kFailClosed:
      // Deliberately nothing: replica copies keep punting to the dead
      // process and drop there (counted as downtime drops). Safety over
      // availability — the inert default.
      break;
    case DegradedPolicy::kFailOpenSingle:
      // After the rewire latency, the designated replica's traffic
      // bypasses the compare. Loudly: this path has no majority vote.
      simulator_.schedule_after(kPromoteLatency, [this, epoch] {
        if (!degraded_ || epoch != degraded_epoch_) return;
        for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
          openflow::FlowSpec spec;
          spec.match.with_in_port(
              combiner_.edge_replica_port[i][kDesignatedReplica]);
          spec.actions = {
              openflow::OutputAction::to(combiner_.edge_neighbor_port[i])};
          spec.priority = core::kFailOpenPriority;
          combiner_.edges[i]->table().add(std::move(spec));
        }
      });
      break;
    case DegradedPolicy::kFailStatic:
      // After the keepalive delay, remove the punt rule for the
      // designated port; traffic falls through to the pre-installed
      // static rules (the fail-standalone transition).
      simulator_.schedule_after(kSwitchKeepalive, [this, epoch] {
        if (!degraded_ || epoch != degraded_epoch_) return;
        for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
          openflow::Match match;
          match.with_in_port(
              combiner_.edge_replica_port[i][kDesignatedReplica]);
          combiner_.edges[i]->table().remove_strict(match, core::kPuntPriority);
        }
      });
      break;
  }
}

void ResilienceManager::exit_degraded() {
  degraded_ = false;
  ++degraded_epoch_;  // cancels any still-pending activation
  trace(obs::TraceEvent::kResilienceDegradedExit,
        static_cast<int>(config_.policy), 0);

  for (std::size_t i = 0; i < combiner_.edges.size(); ++i) {
    const device::PortIndex rp =
        combiner_.edge_replica_port[i][kDesignatedReplica];
    switch (config_.policy) {
      case DegradedPolicy::kFailClosed:
        break;
      case DegradedPolicy::kFailOpenSingle: {
        openflow::Match match;
        match.with_in_port(rp);
        combiner_.edges[i]->table().remove_strict(match,
                                                  core::kFailOpenPriority);
        break;
      }
      case DegradedPolicy::kFailStatic: {
        // Re-arm the punt toward the (now live) compare. add() replaces a
        // strictly-equal entry, so a never-activated fallback is safe.
        openflow::FlowSpec punt;
        punt.match.with_in_port(rp);
        punt.actions = {openflow::OutputAction::controller()};
        punt.priority = core::kPuntPriority;
        combiner_.edges[i]->table().add(std::move(punt));
        break;
      }
    }
  }
}

void ResilienceManager::hub_crash(int edge_idx, sim::Duration recover_after) {
  if (edge_idx < 0 ||
      static_cast<std::size_t>(edge_idx) >= combiner_.edges.size()) {
    return;
  }
  const auto i = static_cast<std::size_t>(edge_idx);
  core::remove_hub_rules(*combiner_.edges[i], combiner_.edge_neighbor_port[i]);
  trace(obs::TraceEvent::kResilienceHubCrash, edge_idx, 0);
  if (recover_after > sim::Duration::zero()) {
    simulator_.schedule_after(recover_after, [this, i, edge_idx] {
      // The hub is stateless: restart is exactly re-installing the
      // fan-out. Port and registry counters never reset, so the split
      // sequence continues where it stopped (counter continuity). With
      // the health loop active, its next install_fanout() re-applies any
      // quarantine mask on top of this full fan-out.
      core::install_hub_rules(*combiner_.edges[i],
                              combiner_.edge_neighbor_port[i],
                              combiner_.edge_replica_port[i]);
      trace(obs::TraceEvent::kResilienceHubRestart, edge_idx, 0);
    });
  }
}

void ResilienceManager::heartbeat_loss(sim::Duration duration) {
  begin_outage();
  heartbeat_suppressed_ = true;
  if (duration > sim::Duration::zero()) {
    simulator_.schedule_after(duration, [this] {
      heartbeat_suppressed_ = false;
      // Suppression ended without a declared failover: the primary was
      // live all along, so no outage materialized.
      if (!dead_declared_) outage_open_ = false;
    });
  }
}

ResilienceSummary ResilienceManager::summary() const {
  ResilienceSummary s;
  // One manager runs per circuit context, so its registry counters are
  // its own counts.
  s.checkpoints = checkpoint_counter_->value();
  s.failovers = failover_counter_->value();
  s.degraded_entries = degraded_counter_->value();
  s.time_to_failover_ns = time_to_failover_ns_;
  s.gap_loss = gap_loss_;
  s.downtime_drops = combiner_.compare->downtime_drops();
  for (const auto* edge : combiner_.edges) {
    const core::CompareStats* stats =
        combiner_.compare->stats_for(edge->name());
    if (stats != nullptr) s.suppressed_recovered += stats->suppressed_recovered;
  }
  return s;
}

}  // namespace netco::resilience
