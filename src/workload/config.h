// Workload engine configuration: user populations as arrival processes.
//
// A workload run models sessions arriving as a (possibly time-varying)
// Poisson process; each session runs a geometric number of flows with
// bounded-Pareto sizes, separated by exponential think times — the
// classic heavy-tailed web-user model (Crovella/Bestavros). Four scenario
// shapes modulate the arrival rate or attach an adversary:
//
//   steady       λ(t) = λ0
//   diurnal      λ(t) = λ0 · (1 + A · sin(2πt/T))       (day/night ramp)
//   flash-crowd  λ(t) = λ0 · M inside a burst window     (news event)
//   ddos-burst   λ(t) = λ0, plus adversary::DosFlooder injecting forged
//                traffic at one replica inside the burst window (the
//                combiner's health machinery is the defense under test)
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace netco::workload {

/// Scenario shapes for the arrival process (see file comment).
enum class Scenario : std::uint8_t {
  kSteady,
  kDiurnal,
  kFlashCrowd,
  kDdosBurst,
};

[[nodiscard]] const char* to_string(Scenario scenario) noexcept;

/// Flow-level workload parameters. Defaults model a modest population that
/// a k=3 combiner sustains with headroom; benches sweep the arrival rate.
///
/// Fixed by the engine (workload/engine.cpp): flow sizes are bounded
/// Pareto(1.3) from 1 packet up; a flow's window starts at 2 packets per
/// 2 ms pacing tick and doubles per tick up to 32; a 40 ms completion
/// timeout retransmits any shortfall, up to 6 rounds; the diurnal
/// amplitude is 0.6, the flash-crowd multiplier 8 and the burst window
/// 0.2 of `duration` long; flows send to UDP port 5002; the per-flow
/// timers tick at 100 µs.
struct WorkloadConfig {
  /// UDP payload bytes per packet (>= 12: flow index + token + seq).
  static constexpr std::size_t kPayloadBytes = 200;
  /// DDoS: bytes per forged packet.
  static constexpr std::size_t kDdosPacketBytes = 200;

  /// Master switch: when false inside SoakOptions, the soak runs the
  /// classic single-stream UDP sender and nothing here is read.
  bool enabled = false;

  Scenario scenario = Scenario::kSteady;

  /// Base session arrival rate λ0 (sessions per second of sim time).
  double session_arrivals_per_sec = 200.0;

  /// Arrival phase length T: arrivals stop and the drain begins at T.
  sim::Duration duration = sim::Duration::seconds(3);

  // --- population shape --------------------------------------------------
  /// Flows per session ~ Geometric (support ≥ 1) with this mean.
  double flows_per_session_mean = 3.0;
  /// Think time between a session's flows ~ Exponential with this mean.
  sim::Duration think_mean = sim::Duration::milliseconds(200);
  /// Upper bound of the bounded-Pareto flow size in packets: many mice,
  /// few elephants — the heavy tail that breaks mean-based sizing.
  std::uint32_t flow_max_packets = 256;

  // --- capacity ----------------------------------------------------------
  /// Flow records in the flat pool: sessions beyond this are dropped (and
  /// counted). Sized up to millions in the capacity bench.
  std::size_t pool_capacity = 1 << 16;
  /// Sessions transmitting concurrently; the rest queue in an intrusive
  /// FIFO inside the pool (admission control, not allocation).
  std::uint32_t active_cap = 256;

  // --- scenario shaping --------------------------------------------------
  /// Start of the burst window (flash crowd and DDoS) as a fraction of
  /// `duration`.
  double burst_start_frac = 0.4;
  /// DDoS: forged packets per second injected at replica 0 in the window.
  double ddos_packets_per_sec = 20'000.0;
};

}  // namespace netco::workload
