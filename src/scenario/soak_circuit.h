// One combiner circuit of a soak, packaged as a window-driven unit.
//
// SoakCircuit owns the whole stack of a soak — the Fig. 3 topology, the
// QuorumTraceChecker, the fault injector, the UDP endpoints or the
// workload engine — and exposes the soak's event program as the window
// protocol of scenario/circuit.h: start() arms the sender and returns the
// first window cap, on_window() runs the between-window bookkeeping
// (audits, tail-goodput mark, sender stop, drain) and returns the next
// cap, and finalize() collects the SoakResult. run_soak() drives it with
// run_circuit() on one thread, run_sharded_soak() with run_fleet() as one
// cell of many; its event stream is the same either way.
#pragma once

#include <chrono>
#include <memory>

#include "faultinject/injector.h"
#include "faultinject/invariants.h"
#include "host/udp_app.h"
#include "obs/trace.h"
#include "resilience/resilience.h"
#include "scenario/soak.h"
#include "topo/figure3.h"
#include "workload/engine.h"

namespace netco::scenario {

/// Forwards only the record kinds the protocol checker actually reads
/// (everything except the replica/link forwarding narration; see
/// SoakOptions::protocol_trace_only).
class ProtocolFilterSink final : public obs::TraceSink {
 public:
  explicit ProtocolFilterSink(obs::TraceSink& downstream)
      : downstream_(downstream) {}

  void append(const obs::TraceRecord& record) override {
    switch (record.event) {
      case obs::TraceEvent::kReplicaForward:
      case obs::TraceEvent::kLinkDrop:
      case obs::TraceEvent::kLinkLoss:
        return;
      default:
        downstream_.append(record);
    }
  }

 private:
  obs::TraceSink& downstream_;
};

class SoakCircuit {
 public:
  /// Validates the options (k bounds, mode exclusivity) and builds the
  /// whole circuit in run_soak()'s construction order. Emits no trace
  /// records itself — install trace_sink() on the running thread's tracer
  /// before the first window.
  explicit SoakCircuit(const SoakOptions& options);
  ~SoakCircuit();

  SoakCircuit(const SoakCircuit&) = delete;
  SoakCircuit& operator=(const SoakCircuit&) = delete;

  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return topo_->simulator();
  }

  /// The sink the circuit's records must reach: the invariant checker,
  /// behind the protocol filter when options.protocol_trace_only.
  [[nodiscard]] obs::TraceSink& trace_sink() noexcept {
    return opts_.protocol_trace_only
               ? static_cast<obs::TraceSink&>(filtered_)
               : checker_;
  }

  /// Starts the sender; returns the first window cap.
  sim::TimePoint start();

  /// Between-window bookkeeping after the simulator reached `committed`
  /// (the previous cap): audit, tail mark, phase transitions. Returns the
  /// next cap, or done_marker() once the drain window has been audited.
  sim::TimePoint on_window(sim::TimePoint committed);

  /// Epilogue: fills the SoakResult (counters, hashes, invariants, and —
  /// from the calling thread's current metrics registry — verdict
  /// percentiles and the metrics snapshot). Call on the thread that ran
  /// the windows, in the context the circuit was built in: the circuit's
  /// own, under run_circuit() and run_fleet().
  void finalize();

  /// Moves the collected result out (valid after finalize()).
  [[nodiscard]] SoakResult take_result() { return std::move(result_); }

  /// Cap sentinel, identical to sim::ShardCell::done_marker().
  [[nodiscard]] static constexpr sim::TimePoint done_marker() noexcept {
    return sim::TimePoint::from_ns(INT64_MAX);
  }

 private:
  /// kSettling exists only in workload mode: after the engine's pool has
  /// emptied, one extra window lets the compare caches age out before the
  /// final audit (the classic path folds this into kDraining's fixed
  /// hold-based window).
  enum class Phase { kSending, kDraining, kSettling, kDone };

  void audit_cores();
  sim::TimePoint on_workload_window(sim::TimePoint committed);

  // Declaration order mirrors run_soak()'s stack: the topology outlives
  // the checker, which outlives the resilience taps and injector, which
  // outlive the UDP endpoints.
  SoakOptions opts_;  ///< with the default fault plan materialized
  sim::Duration horizon_;
  topo::Figure3Options topo_options_;
  std::unique_ptr<topo::Figure3Topology> topo_;
  faultinject::QuorumTraceChecker checker_;
  ProtocolFilterSink filtered_;
  std::unique_ptr<resilience::ResilienceManager> resilience_mgr_;
  std::unique_ptr<faultinject::FaultInjector> injector_;
  std::unique_ptr<host::UdpSender> sender_;
  std::unique_ptr<host::UdpSink> sink_;
  /// Workload mode (opts_.workload.enabled): replaces sender_/sink_.
  std::unique_ptr<workload::WorkloadEngine> engine_;

  SoakResult result_;
  std::chrono::steady_clock::time_point wall_start_;
  sim::TimePoint deadline_;
  std::uint64_t tail_sent_mark_ = 0;
  std::uint64_t tail_delivered_mark_ = 0;
  bool tail_marked_ = false;
  Phase phase_ = Phase::kSending;
};

}  // namespace netco::scenario
