// Sharded soak: many independent combiner circuits advanced in parallel
// by a sim::ShardedSimulator (run_fleet() of scenario/circuit.h over
// SoakCircuit).
//
// Each circuit is a SoakCircuit on its own sim::Simulator with its own
// seed, RNG streams, trace checker and observability context, so its
// event stream, percentiles and metrics snapshot are bit-identical to
// run_soak() on its seed for ANY shard count — parallelism only changes
// which thread interleaves which circuit. The merged artifacts are
// canonical:
//
//  * merged_stream_hash / merged_egress_hash — the per-circuit hashes
//    folded in circuit-index order (identity for a single circuit, so a
//    1-circuit sharded run reproduces run_soak()'s hash exactly);
//  * metrics_json — the per-circuit registries merged in circuit-index
//    order, the same snapshot for every shard count.
//
// Optional cross-shard beacons exercise the shard-crossing machinery with
// real link::Channel traffic (bind_remote over ShardChannels in a ring).
// Beacon deliveries are trace-neutral by construction — no RNG draws, no
// trace records — so they scale the cross-shard message count without
// perturbing any circuit's protocol stream.
#pragma once

#include <cstdint>

#include "scenario/circuit.h"
#include "scenario/soak.h"

namespace netco::scenario {

/// Parameters for a sharded fleet soak.
struct ShardedSoakOptions {
  /// Per-circuit template. Circuit 0 runs base.seed exactly (so a
  /// 1-circuit run reproduces run_soak(base)); circuit i>0 runs
  /// hash_mix(base.seed, i).
  SoakOptions base;
  /// Independent combiner circuits in the fleet.
  std::size_t circuits = 1;
  /// Worker threads (the "shards=N" knob). Never affects any hash.
  int shards = 1;
  /// Wire a beacon ring circuit i → (i+1) % circuits over cross-shard
  /// channels (ignored with a single circuit). Each circuit beacons every
  /// 10 ms while its sender phase lasts.
  bool cross_shard_beacons = false;
};

/// Aggregate outcome plus every per-circuit result.
struct ShardedSoakResult : FleetResult<SoakResult> {
  std::uint64_t merged_egress_hash = 0;

  // Fleet-level sums over circuits.
  std::uint64_t datagrams_sent = 0;
  std::uint64_t delivered_unique = 0;
  std::uint64_t compare_ingested = 0;
  std::uint64_t compare_released = 0;
  std::uint64_t duplicate_egress = 0;
  std::uint64_t fault_events_applied = 0;

  double wall_pps = 0.0;  ///< total offered datagrams / wall second

  /// True when every circuit's invariant verdict is clean.
  [[nodiscard]] bool ok() const noexcept {
    for (const SoakResult& r : circuits) {
      if (!r.invariants.ok()) return false;
    }
    return !circuits.empty();
  }
};

/// Runs the fleet. Same seed + same options ⇒ identical merged hashes and
/// metrics snapshot for every value of shards, and circuit i's result
/// equals run_soak() on circuit i's seed (wall-clock fields aside).
ShardedSoakResult run_sharded_soak(const ShardedSoakOptions& options);

}  // namespace netco::scenario
