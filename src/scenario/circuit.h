// One runner for the window-driven circuits of every harness.
//
// A circuit is one simulated network on its own sim::Simulator — the
// soak's Fig. 3 combiner (SoakCircuit), the static-failover fat-tree, the
// routing-convergence diamond — that exposes its event program as a
// window protocol:
//
//   C(const Options&)   builds everything, with tracing off: a record
//                       emitted while building reaches no sink
//   simulator()         its event loop
//   trace_sink()        where its trace records must go (its checker)
//   start()             arms traffic and faults; returns the first cap
//   on_window(cap)      bookkeeping once the loop has reached `cap`;
//                       returns the next cap, or ShardCell::done_marker()
//   finalize()          collects the result, reading the metrics of the
//                       calling thread's current observability context
//   take_result()       moves the result out
//
// run_circuit() drives one circuit on the calling thread. run_fleet() runs
// many as the cells of a sim::ShardedSimulator. Each fleet circuit owns
// its simulator, seed, checker and observability context, so its event
// stream, result and metrics are the same as a solo run's, and the merged
// fleet artifacts are the same for every shard count.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/hash.h"
#include "link/link.h"
#include "obs/observability.h"
#include "sim/shard.h"

namespace netco::scenario {

/// The window protocol of the file comment.
template <class C>
concept Circuit = requires(C& circuit, sim::TimePoint cap) {
  { circuit.simulator() } -> std::same_as<sim::Simulator&>;
  { circuit.trace_sink() } -> std::same_as<obs::TraceSink&>;
  { circuit.start() } -> std::same_as<sim::TimePoint>;
  { circuit.on_window(cap) } -> std::same_as<sim::TimePoint>;
  circuit.finalize();
  circuit.take_result();
};

template <Circuit C>
using CircuitResult = decltype(std::declval<C&>().take_result());

/// What a fleet run produces, whatever its circuits are.
template <class Result>
struct FleetResult {
  std::vector<Result> circuits;  ///< indexed by circuit id
  /// Per-circuit stream hashes folded in circuit order (identity for a
  /// single circuit, so a 1-circuit fleet reproduces the solo hash).
  std::uint64_t merged_stream_hash = 0;
  /// Conservative-protocol rounds (worker-count invariant).
  std::uint64_t rounds = 0;
  /// Cross-shard deliveries (beacon traffic; 0 without beacons), and the
  /// beacons that reached a receiver still running.
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t beacons_received = 0;
  /// Wall clock of the whole fleet run, cell construction included.
  double wall_seconds = 0.0;
  /// Per-circuit metrics registries merged in circuit order.
  std::string metrics_json;
};

/// Folds one per-circuit hash in circuit order: the identity for a single
/// circuit, an FNV-style mix otherwise.
template <class Result>
[[nodiscard]] std::uint64_t fold_in_circuit_order(
    const std::vector<Result>& circuits, std::uint64_t Result::*hash) {
  if (circuits.size() == 1) return circuits.front().*hash;
  std::uint64_t folded = kFnvOffset;
  for (const Result& result : circuits) {
    folded = hash_mix(folded, result.*hash);
  }
  return folded;
}

/// Runs one circuit on the calling thread, in that thread's current
/// observability context: resets its metrics registry first (the snapshot
/// a result carries belongs to this run alone) and routes the circuit's
/// records to trace_sink() while it runs. A sink installed before the
/// call (a bench's NETCO_TRACE_OUT file, a test's ring) receives every
/// record trace_sink() receives.
template <Circuit C, class Options>
CircuitResult<C> run_circuit(const Options& options) {
  obs::global().metrics.reset();
  obs::TraceSink* outer = obs::global().tracer.sink();
  std::optional<C> circuit;
  {
    obs::ScopedTraceSink untraced(nullptr);
    circuit.emplace(options);
  }
  std::optional<obs::TeeSink> tee;
  if (outer != nullptr) tee.emplace(circuit->trace_sink(), *outer);
  obs::ScopedTraceSink scoped(tee ? static_cast<obs::TraceSink&>(*tee)
                                  : circuit->trace_sink());
  sim::TimePoint cap = circuit->start();
  while (cap != sim::ShardCell::done_marker()) {
    circuit->simulator().run_until(cap);
    cap = circuit->on_window(cap);
  }
  circuit->finalize();
  return circuit->take_result();
}

namespace detail {

/// One fleet circuit's outputs. Its cell writes them on the cell's worker;
/// the coordinator reads them once ShardedSimulator::run() has returned.
template <class Result>
struct FleetSlot {
  Result result;
  obs::MetricsRegistry metrics;
  std::uint64_t beacons_received = 0;  ///< bumped on this cell's worker
};

/// Runs a circuit as a ShardCell in an observability context of its own,
/// optionally with a beacon transmitter toward the next circuit of a ring
/// (real link::Channel traffic over a ShardChannel). Beacons draw no
/// random numbers and emit no trace records, so they never perturb the
/// circuit's stream.
template <Circuit C>
class FleetCell final : public sim::ShardCell {
 public:
  using Slot = FleetSlot<CircuitResult<C>>;

  template <class Options>
  FleetCell(const Options& options, Slot& slot, sim::ShardChannel* beacon_out,
            std::uint64_t* peer_beacons)
      : slot_(slot) {
    // Components bind to the current context when they are built.
    obs::set_current(&obs_);
    circuit_.emplace(options);
    if (beacon_out != nullptr) {
      // The beacon period is the ring's lookahead, which the beacon link's
      // propagation must cover.
      beacon_period_ = beacon_out->lookahead();
      link::LinkConfig config;
      config.propagation = beacon_period_;
      beacon_tx_.emplace(circuit_->simulator(), config);
      beacon_tx_->set_label("beacon");
      // The delivery runs on the receiving cell's worker, which owns the
      // counter it bumps.
      beacon_tx_->bind_remote(*beacon_out, [peer_beacons](net::Packet) {
        ++*peer_beacons;
      });
    }
    obs_.tracer.set_sink(&circuit_->trace_sink());
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept override {
    return circuit_->simulator();
  }

  sim::TimePoint start() override {
    obs::set_current(&obs_);
    if (beacon_tx_) schedule_beacon();
    cap_ = circuit_->start();
    return cap_;
  }

  void before_window() override { obs::set_current(&obs_); }

  sim::TimePoint on_window(sim::TimePoint committed) override {
    // A neighbour's horizon cut the window short of the cap: keep going,
    // so the circuit's bookkeeping lands exactly on its own caps however
    // the conservative protocol slices the windows.
    if (committed < cap_) return cap_;
    cap_ = circuit_->on_window(committed);
    return cap_;
  }

  void finalize() override {
    obs::set_current(&obs_);
    circuit_->finalize();
    slot_.result = circuit_->take_result();
    slot_.metrics.merge_from(obs_.metrics);
    // The checker dies with the circuit, and the worker outlives the cell.
    obs_.tracer.set_sink(nullptr);
    obs::set_current(nullptr);
  }

 private:
  void schedule_beacon() {
    // Heartbeats for the whole run; the ones pending when the circuit
    // finishes never execute.
    circuit_->simulator().schedule_after(beacon_period_, [this] {
      beacon_tx_->send(net::Packet::zeroed(64));
      schedule_beacon();
    });
  }

  Slot& slot_;
  // Declared before the circuit, so it outlives every component holding
  // a pointer to it.
  obs::Observability obs_;
  std::optional<C> circuit_;
  std::optional<link::Channel> beacon_tx_;
  sim::Duration beacon_period_;
  sim::TimePoint cap_;
};

}  // namespace detail

/// Runs `circuits` copies of the circuit on `shards` worker threads.
/// Circuit 0 runs base.seed exactly, so a 1-circuit fleet reproduces
/// run_circuit(base); circuit i > 0 runs hash_mix(base.seed, i). With a
/// beacon period and more than one circuit, circuit i also sends beacons
/// to circuit (i + 1) % circuits at that period. Every merged artifact is
/// the same for every value of shards.
template <Circuit C, class Options>
FleetResult<CircuitResult<C>> run_fleet(
    const Options& base, std::size_t circuits, int shards,
    std::optional<sim::Duration> beacon_period = std::nullopt) {
  using Result = CircuitResult<C>;
  using Slot = detail::FleetSlot<Result>;
  NETCO_ASSERT(circuits >= 1);
  NETCO_ASSERT(shards >= 1);

  std::vector<Slot> slots(circuits);
  sim::ShardedSimulator sharded({.workers = shards});
  // Factories run on the pinned workers at run(); they read their ring
  // slot by reference, so connect() below can fill it in afterwards.
  std::vector<sim::ShardChannel*> ring(circuits, nullptr);
  for (std::size_t i = 0; i < circuits; ++i) {
    Options options = base;
    if (i != 0) {
      options.seed = hash_mix(base.seed, static_cast<std::uint64_t>(i));
    }
    Slot* peer = &slots[(i + 1) % circuits];
    sharded.add_cell([options, &slots, &ring, i, peer] {
      return std::make_unique<detail::FleetCell<C>>(options, slots[i], ring[i],
                                                    &peer->beacons_received);
    });
  }
  if (beacon_period && circuits > 1) {
    for (std::size_t i = 0; i < circuits; ++i) {
      ring[i] = &sharded.connect(i, (i + 1) % circuits, *beacon_period);
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  sharded.run();
  FleetResult<Result> out;
  out.circuits.reserve(circuits);
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();

  obs::MetricsRegistry merged;
  for (Slot& slot : slots) {
    out.circuits.push_back(std::move(slot.result));
    merged.merge_from(slot.metrics);
    out.beacons_received += slot.beacons_received;
  }
  out.metrics_json = merged.to_json();
  out.merged_stream_hash =
      fold_in_circuit_order(out.circuits, &Result::stream_hash);
  out.rounds = sharded.rounds();
  out.cross_shard_messages = sharded.cross_shard_messages();
  return out;
}

}  // namespace netco::scenario
