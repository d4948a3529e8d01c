#include "obs/sim_sampler.h"

namespace netco::obs {

namespace {

constexpr sim::Duration kPeriod = sim::Duration::milliseconds(1);

}  // namespace

SimulatorSampler::SimulatorSampler(sim::Simulator& simulator)
    : simulator_(simulator),
      pending_depth_(global().metrics.histogram(
          "sim.events_pending", default_queue_depth_buckets())),
      queue_depth_(global().metrics.histogram("sim.queue_size",
                                              default_queue_depth_buckets())),
      executed_(global().metrics.counter("sim.events_executed")),
      sample_count_(global().metrics.counter("sim.samples")) {}

void SimulatorSampler::start() {
  stop();
  last_executed_ = simulator_.events_executed();
  handle_ = simulator_.schedule_after(kPeriod, [this] { tick(); });
}

void SimulatorSampler::stop() noexcept { handle_.cancel(); }

void SimulatorSampler::tick() {
  pending_depth_.observe(static_cast<double>(simulator_.events_pending()));
  queue_depth_.observe(static_cast<double>(simulator_.queue_size()));
  const std::uint64_t executed = simulator_.events_executed();
  executed_.inc(executed - last_executed_);
  last_executed_ = executed;
  sample_count_.inc();
  handle_ = simulator_.schedule_after(kPeriod, [this] { tick(); });
}

}  // namespace netco::obs
