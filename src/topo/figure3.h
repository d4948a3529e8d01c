// The paper's reference testing topology (Fig. 3):
//
//   h1 —— s1 ——[ r1 … rk ]—— s2 —— h2        (+ h3, the compare process)
//
// In the combiner variants, s1/s2 are the trusted edges built by
// CombinerBuilder and h3 is the CompareService controller. The Linespeed
// reduction replaces the parallel circuit with a single router r3:
//
//   h1 —— s1 —— r3 —— s2 —— h2
#pragma once

#include <memory>

#include "device/network.h"
#include "health/service.h"
#include "host/host.h"
#include "link/link.h"
#include "netco/combiner.h"
#include "obs/sim_sampler.h"
#include "sim/simulator.h"

namespace netco::topo {

/// Construction options for the Fig. 3 topology.
struct Figure3Options {
  /// false → the Linespeed reduction (single router, no combiner).
  bool use_combiner = true;
  /// Combiner parameters (k, compare config and profile, edge mode).
  core::CombinerOptions combiner;
  /// Simulation seed.
  std::uint64_t seed = 1;
  /// Replica-health loop (src/health). Disabled by default; enabling it
  /// requires use_combiner with a compare (any mode but EdgeMode::kDup).
  health::HealthConfig health;
};

/// An instantiated Fig. 3 network: owns the simulator, the network, and the
/// combiner bookkeeping.
class Figure3Topology {
 public:
  explicit Figure3Topology(Figure3Options options);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] device::Network& network() noexcept { return network_; }
  [[nodiscard]] host::Host& h1() noexcept { return *h1_; }
  [[nodiscard]] host::Host& h2() noexcept { return *h2_; }

  /// The combiner (valid when use_combiner; edges are s1=edges[0] toward
  /// h1 and s2=edges[1] toward h2).
  [[nodiscard]] core::CombinerInstance& combiner() noexcept {
    return combiner_;
  }
  [[nodiscard]] const Figure3Options& options() const noexcept {
    return options_;
  }

  /// The health loop (nullptr unless options.health.enabled and the
  /// combiner has a compare).
  [[nodiscard]] health::HealthService* health() noexcept {
    return health_.get();
  }

 private:
  Figure3Options options_;
  sim::Simulator simulator_;
  /// Event-loop occupancy sampling ("sim.events_pending" /
  /// "sim.events_executed" in the global metrics registry).
  obs::SimulatorSampler sampler_;
  device::Network network_;
  host::Host* h1_ = nullptr;
  host::Host* h2_ = nullptr;
  core::CombinerInstance combiner_;
  /// Declared after combiner_ so it is destroyed first (it un-installs
  /// its verdict sinks from the combiner's compare cores).
  std::unique_ptr<health::HealthService> health_;
};

}  // namespace netco::topo
