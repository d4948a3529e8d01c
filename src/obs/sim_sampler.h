// SimulatorSampler: periodic event-loop occupancy sampling.
//
// Records, every millisecond of simulated time, the simulator's live event
// count (events_pending) and raw queue occupancy (queue_size, which
// includes cancelled tombstones awaiting lazy purge) into histograms, and
// the number of events executed since the previous sample into a counter —
// the event-loop occupancy signal the ROADMAP perf PRs diff before/after.
// The sampling events are themselves scheduled deterministically, so runs
// remain bit-reproducible.
#pragma once

#include "obs/observability.h"
#include "sim/simulator.h"

namespace netco::obs {

class SimulatorSampler {
 public:
  /// Samples into the calling thread's current context (obs::global()).
  explicit SimulatorSampler(sim::Simulator& simulator);

  SimulatorSampler(const SimulatorSampler&) = delete;
  SimulatorSampler& operator=(const SimulatorSampler&) = delete;

  ~SimulatorSampler() { stop(); }

  /// Starts (or restarts) the periodic sampling.
  void start();

  /// Cancels the pending sample; idempotent.
  void stop() noexcept;

 private:
  void tick();

  sim::Simulator& simulator_;
  Histogram& pending_depth_;
  Histogram& queue_depth_;
  Counter& executed_;
  Counter& sample_count_;
  std::uint64_t last_executed_ = 0;
  sim::EventHandle handle_;
};

}  // namespace netco::obs
