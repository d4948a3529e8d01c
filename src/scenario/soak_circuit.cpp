#include "scenario/soak_circuit.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "netco/compare_store.h"
#include "obs/observability.h"

namespace netco::scenario {

namespace {

/// How often the compare caches are audited (and the window cadence).
constexpr sim::Duration kAuditPeriod = sim::Duration::milliseconds(50);

/// Expected run length for a packet budget at an offered rate, with head
/// room for warmup, fault churn, and pacing jitter. In workload mode the
/// arrival phase length is configured directly.
sim::Duration expected_duration(const SoakOptions& options) {
  if (options.workload.enabled) return options.workload.duration;
  const double pps = static_cast<double>(options.rate.bps()) /
                     (static_cast<double>(SoakOptions::payload_bytes) * 8.0);
  const double secs = static_cast<double>(options.packets) / pps;
  return sim::Duration::seconds_f(secs);
}

topo::Figure3Options make_topo_options(const SoakOptions& options) {
  // Central3/Central5 tuning, then override the soak-specific knobs.
  topo::Figure3Options topo_options = make_options(
      options.k >= 5 ? ScenarioKind::kCentral5 : ScenarioKind::kCentral3,
      options.seed);
  topo_options.combiner.k = options.k;
  topo_options.combiner.compare.policy = options.policy;
  // Blocks must recover: a fault plan *will* trip the flood monitors
  // (byzantine swaps produce attributable garbage), and a permanent block
  // of an honest replica would turn one transient into a dead replica for
  // the rest of the soak. This also keeps the unblock timer path hot.
  topo_options.combiner.block_duration = sim::Duration::milliseconds(50);
  topo_options.health = options.health;
  topo_options.combiner.compare.sampling = options.sampling;
  return topo_options;
}

faultinject::QuorumTraceChecker::Config make_checker_config(
    const SoakOptions& options) {
  faultinject::QuorumTraceChecker::Config check_cfg;
  check_cfg.first_copy = options.policy == core::ReleasePolicy::kFirstCopy;
  // The checker follows health.quarantine/readmit records in the stream,
  // so quarantine-shrunken quorums validate correctly.
  check_cfg.k = options.k;
  // The at-most-once egress invariant engages for resilience runs
  // (crash-recovery and failover could double-release) and for sampled
  // runs (the fast path and the full compare must never both release).
  check_cfg.check_duplicates =
      options.resilience.enabled || options.sampling.enabled;
  return check_cfg;
}

}  // namespace

SoakCircuit::SoakCircuit(const SoakOptions& options)
    : opts_(options),
      horizon_(expected_duration(options)),
      topo_options_(make_topo_options(options)),
      checker_(make_checker_config(options)),
      filtered_(checker_),
      // Hard stop at 8× the expected duration: the soak must terminate
      // even if a future regression stalls the sender.
      deadline_(sim::TimePoint::origin() + horizon_ * 8 +
                sim::Duration::seconds(1)) {
  NETCO_ASSERT(options.packets > 0 && options.rate.positive());
  // Reject oversized fleets here, with the full context, rather than as
  // silent vote drops when the fast path shifts a replica id past the
  // 64-bit bitmask (core::CompareStore::kMaxReplicas).
  NETCO_ASSERT_MSG(
      options.k >= 1 && options.k < core::CompareStore::kMaxReplicas,
      "SoakOptions.k out of range: replica fleets are capped at 63 (ids "
      "must fit the 64-bit vote bitmask)");
  NETCO_ASSERT_MSG(
      !(options.sampling.enabled && options.resilience.enabled),
      "sampled verification and warm-standby resilience are mutually "
      "exclusive: fast-path releases bypass the standby's suppression "
      "window (see SoakOptions::sampling)");

  if (opts_.plan.empty() && opts_.inject_default_faults) {
    faultinject::FaultPlanParams params;
    params.k = opts_.k;
    params.horizon = horizon_;
    // Short smoke runs still deserve churn: keep the quiet lead-in below
    // a fifth of the run instead of a fixed 100 ms.
    params.start = std::min(params.start,
                            sim::Duration::nanoseconds(horizon_.ns() / 5));
    // With the resilience subsystem on, the default plan also kills the
    // trusted compare once mid-run — the failure the subsystem exists for.
    if (opts_.resilience.enabled) params.compare_crashes = 1;
    opts_.plan = faultinject::FaultPlan::random(opts_.seed, params);
  }

  topo_ = std::make_unique<topo::Figure3Topology>(topo_options_);

  // Construct after the topology, destroy before it (taps and timers
  // reference the edges). Requires the compare (not EdgeMode::kDup).
  core::CombinerInstance& combiner = topo_->combiner();
  if (opts_.resilience.enabled && combiner.compare != nullptr) {
    resilience_mgr_ = std::make_unique<resilience::ResilienceManager>(
        topo_->simulator(), combiner, opts_.resilience);
  }

  injector_ = std::make_unique<faultinject::FaultInjector>(*topo_, opts_.plan);
  injector_->set_resilience(resilience_mgr_.get());
  injector_->arm();

  if (opts_.workload.enabled) {
    // The engine replaces the single-stream endpoints. The DDoS-burst
    // scenario floods from replica 0 toward the h2-side edge (s2), so the
    // forged copies arrive at one compare core with no sibling quorum —
    // the flood/health machinery is the defense under test.
    std::optional<workload::DdosHook> hook;
    if (opts_.workload.scenario == workload::Scenario::kDdosBurst) {
      NETCO_ASSERT_MSG(!combiner.replicas.empty(),
                       "ddos-burst workload needs a combiner replica");
      workload::DdosHook h;
      h.datapath = combiner.replicas[0];
      h.config.out_port = combiner.replica_edge_port[0][1];
      h.config.packets_per_sec = opts_.workload.ddos_packets_per_sec;
      h.config.packet_bytes = workload::WorkloadConfig::kDdosPacketBytes;
      h.config.dst_mac = topo_->h2().mac();
      h.config.src_mac = topo_->h1().mac();
      hook = h;
    }
    engine_ = std::make_unique<workload::WorkloadEngine>(
        topo_->h1(), topo_->h2(), opts_.workload, opts_.seed, hook);
    return;
  }
  host::UdpSenderConfig scfg;
  scfg.dst_mac = topo_->h2().mac();
  scfg.dst_ip = topo_->h2().ip();
  scfg.rate = opts_.rate;
  scfg.payload_bytes = SoakOptions::payload_bytes;
  sender_ = std::make_unique<host::UdpSender>(topo_->h1(), scfg);
  sink_ = std::make_unique<host::UdpSink>(topo_->h2(), scfg.dst_port);
}

SoakCircuit::~SoakCircuit() = default;

void SoakCircuit::audit_cores() {
  core::CombinerInstance& combiner = topo_->combiner();
  if (combiner.compare == nullptr) return;
  for (const auto* edge : combiner.edges) {
    const core::CompareCore* core = combiner.compare->core_for(edge->name());
    if (core == nullptr) continue;
    faultinject::check_audit(core->audit(), edge->name(), result_.invariants);
  }
  // The standby's shadow cores keep the same bookkeeping invariants.
  for (std::size_t i = 0; i < combiner.shadow_cores.size(); ++i) {
    faultinject::check_audit(combiner.shadow_cores[i]->audit(),
                             "standby-" + std::to_string(i),
                             result_.invariants);
  }
  ++result_.audits;
}

sim::TimePoint SoakCircuit::start() {
  wall_start_ = std::chrono::steady_clock::now();
  if (engine_ != nullptr) {
    engine_->start();
  } else {
    sender_->start();
  }
  return topo_->simulator().now() + kAuditPeriod;
}

sim::TimePoint SoakCircuit::on_window(sim::TimePoint committed) {
  if (engine_ != nullptr) return on_workload_window(committed);
  switch (phase_) {
    case Phase::kSending: {
      audit_cores();
      // Tail-goodput window: once three quarters of the budget is
      // offered, snapshot the counters; the tail ratio is measured past
      // that mark. The mark lands on an audit-period boundary, so it is
      // sim-deterministic.
      if (!tail_marked_ && sender_->stats().datagrams_sent >=
                               opts_.packets - opts_.packets / 4) {
        tail_marked_ = true;
        tail_sent_mark_ = sender_->stats().datagrams_sent;
        tail_delivered_mark_ = sink_->report().unique_received;
      }
      if (sender_->stats().datagrams_sent < opts_.packets &&
          committed < deadline_) {
        return committed + kAuditPeriod;
      }
      sender_->stop();
      phase_ = Phase::kDraining;
      // Drain: let in-flight packets land and cached entries age out, so
      // the checker's vote map sees every entry's terminal event.
      const sim::Duration hold = topo_options_.combiner.compare.hold_timeout;
      return committed + hold * 3 + sim::Duration::milliseconds(100);
    }
    case Phase::kDraining: {
      audit_cores();
      result_.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start_)
              .count();
      phase_ = Phase::kDone;
      return done_marker();
    }
    case Phase::kSettling:
    case Phase::kDone:
      break;
  }
  return done_marker();
}

sim::TimePoint SoakCircuit::on_workload_window(sim::TimePoint committed) {
  switch (phase_) {
    case Phase::kSending: {
      audit_cores();
      // Tail mark at three quarters of the arrival phase (a window
      // boundary, so sim-deterministic like the classic path's mark).
      if (!tail_marked_ &&
          committed.since_origin().ns() >= horizon_.ns() - horizon_.ns() / 4) {
        tail_marked_ = true;
        tail_sent_mark_ = engine_->stats().packets_offered;
        tail_delivered_mark_ = engine_->stats().packets_delivered;
      }
      if (committed.since_origin() < horizon_ && committed < deadline_) {
        return committed + kAuditPeriod;
      }
      engine_->begin_drain();
      phase_ = Phase::kDraining;
      return committed + kAuditPeriod;
    }
    case Phase::kDraining: {
      audit_cores();
      // Active flows run to completion or abort; poll window-by-window.
      // The deadline bounds the drain even if a future regression wedges
      // a flow (retries are finite, so this only trips on bugs).
      if (!engine_->idle() && committed < deadline_) {
        return committed + kAuditPeriod;
      }
      phase_ = Phase::kSettling;
      // Let in-flight packets land and compare entries age out so the
      // checker's vote map sees every entry's terminal event.
      const sim::Duration hold = topo_options_.combiner.compare.hold_timeout;
      return committed + hold * 3 + sim::Duration::milliseconds(100);
    }
    case Phase::kSettling: {
      audit_cores();
      result_.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start_)
              .count();
      phase_ = Phase::kDone;
      return done_marker();
    }
    case Phase::kDone:
      break;
  }
  return done_marker();
}

void SoakCircuit::finalize() {
  NETCO_ASSERT_MSG(phase_ == Phase::kDone, "finalize() before the drain");
  if (engine_ != nullptr) {
    const workload::WorkloadStats& ws = engine_->stats();
    result_.datagrams_sent = ws.packets_offered;
    result_.delivered_unique = ws.packets_delivered;
    result_.wl_sessions_started = ws.sessions_started;
    result_.wl_sessions_finished = ws.sessions_finished;
    result_.wl_flows_completed = ws.flows_completed;
    result_.wl_flows_aborted = ws.flows_aborted;
    result_.wl_pool_exhausted = ws.pool_exhausted;
    result_.wl_pool_peak_live = engine_->pool().peak_live();
    result_.wl_timer_scheduled = engine_->wheel().scheduled();
    result_.wl_timer_fired = engine_->wheel().fired();
    result_.wl_ddos_emitted = engine_->ddos_emitted();
    engine_->export_metrics();
    const obs::Histogram& fct = obs::global().metrics.histogram(
        "workload.fct_ms");
    result_.wl_fct_p50_ms = fct.quantile(0.50);
    result_.wl_fct_p95_ms = fct.quantile(0.95);
    result_.wl_fct_p99_ms = fct.quantile(0.99);
  } else {
    result_.datagrams_sent = sender_->stats().datagrams_sent;
    result_.delivered_unique = sink_->report().unique_received;
  }
  core::CombinerInstance& combiner = topo_->combiner();
  if (combiner.compare != nullptr) {
    for (const auto* edge : combiner.edges) {
      const core::CompareStats* stats =
          combiner.compare->stats_for(edge->name());
      if (stats == nullptr) continue;
      result_.fastpath_released += stats->fastpath_released;
      result_.sampled_escalated += stats->sampled_escalated;
    }
    // Releases and ingests come from the circuit's own counters: every
    // core of the circuit bumps them, and unlike CompareStats they do not
    // roll back when a warm restart restores a checkpoint. Releases count
    // a promoted standby's too; ingests leave the standby's out, because
    // its copies are mirrored and a standby never restores.
    obs::MetricsRegistry& metrics = obs::global().metrics;
    result_.compare_released = metrics.counter("compare.released").value();
    result_.compare_ingested = metrics.counter("compare.ingested").value();
    for (const core::CompareCore* shadow : combiner.shadow_cores) {
      result_.compare_ingested -= shadow->stats().ingested;
    }
  }
  result_.trace_records = checker_.records_seen();
  result_.fault_events_applied = injector_->applied();
  const double sim_seconds = topo_->simulator().now().since_origin().sec();
  result_.throughput_pps =
      sim_seconds > 0.0
          ? static_cast<double>(result_.datagrams_sent) / sim_seconds
          : 0.0;
  result_.wall_pps =
      result_.wall_seconds > 0.0
          ? static_cast<double>(result_.datagrams_sent) / result_.wall_seconds
          : 0.0;
  const obs::Histogram& verdict =
      obs::global().metrics.histogram("compare.verdict_latency_us");
  result_.verdict_p50_us = verdict.quantile(0.50);
  result_.verdict_p95_us = verdict.quantile(0.95);
  result_.verdict_p99_us = verdict.quantile(0.99);
  const std::uint64_t tail_sent =
      result_.datagrams_sent - (tail_marked_ ? tail_sent_mark_ : 0);
  const std::uint64_t tail_delivered =
      result_.delivered_unique - (tail_marked_ ? tail_delivered_mark_ : 0);
  result_.tail_goodput_ratio =
      tail_sent > 0
          ? static_cast<double>(tail_delivered) /
                static_cast<double>(tail_sent)
          : 0.0;
  result_.duplicate_egress = checker_.duplicates();
  if (resilience_mgr_ != nullptr) {
    const resilience::ResilienceSummary rs = resilience_mgr_->summary();
    result_.resilience_checkpoints = rs.checkpoints;
    result_.resilience_failovers = rs.failovers;
    result_.resilience_degraded_entries = rs.degraded_entries;
    result_.time_to_failover_ns = rs.time_to_failover_ns;
    result_.gap_loss = rs.gap_loss;
    result_.downtime_drops = rs.downtime_drops;
    result_.suppressed_recovered = rs.suppressed_recovered;
  }
  if (health::HealthService* health = topo_->health()) {
    const health::HealthSummary summary = health->summary();
    result_.health_quarantines = summary.quarantines;
    result_.health_readmits = summary.readmits;
    result_.health_bans = summary.bans;
    result_.health_probe_windows = summary.probe_windows;
    result_.first_quarantine_ns = summary.first_quarantine_ns;
    result_.first_readmit_ns = summary.first_readmit_ns;
  }
  // Detection-latency telemetry: quarantine lag behind the plan's first
  // byzantine swap (the EXPERIMENTS.md latency-vs-throughput axis).
  for (const faultinject::FaultEvent& ev : opts_.plan.events) {
    if (ev.kind == faultinject::FaultKind::kBehaviorSwap &&
        ev.behavior != faultinject::SwapBehavior::kHonest) {
      result_.first_swap_ns = ev.at_ns;
      break;
    }
  }
  if (result_.first_swap_ns >= 0 &&
      result_.first_quarantine_ns >= result_.first_swap_ns) {
    result_.time_to_quarantine_ns =
        result_.first_quarantine_ns - result_.first_swap_ns;
  }
  result_.invariants.merge(checker_.report());
  result_.stream_hash = checker_.stream_hash();
  result_.egress_set_hash = checker_.egress_set_hash();
  result_.metrics_json = obs::global().metrics.to_json();
}

}  // namespace netco::scenario
