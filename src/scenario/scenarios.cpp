#include "scenario/scenarios.h"

#include <memory>

#include "common/assert.h"
#include "host/tcp.h"
#include "host/udp_app.h"

namespace netco::scenario {
namespace {

/// Warmup excluded from every measurement (ramp-up, table population).
constexpr sim::Duration kWarmup = sim::Duration::milliseconds(100);

struct KindTraits {
  bool use_combiner;
  bool combine;
  int k;
  bool pox;
};

KindTraits traits(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kLinespeed: return {false, false, 0, false};
    case ScenarioKind::kDup3:      return {true, false, 3, false};
    case ScenarioKind::kDup5:      return {true, false, 5, false};
    case ScenarioKind::kCentral3:  return {true, true, 3, false};
    case ScenarioKind::kCentral5:  return {true, true, 5, false};
    case ScenarioKind::kPox3:      return {true, true, 3, true};
  }
  return {false, false, 0, false};
}

}  // namespace

const char* to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kLinespeed: return "Linespeed";
    case ScenarioKind::kDup3:      return "Dup3";
    case ScenarioKind::kDup5:      return "Dup5";
    case ScenarioKind::kCentral3:  return "Central3";
    case ScenarioKind::kCentral5:  return "Central5";
    case ScenarioKind::kPox3:      return "POX3";
  }
  return "?";
}

std::vector<ScenarioKind> all_scenarios() {
  return {ScenarioKind::kLinespeed, ScenarioKind::kDup3, ScenarioKind::kDup5,
          ScenarioKind::kCentral3, ScenarioKind::kCentral5,
          ScenarioKind::kPox3};
}

std::vector<ScenarioKind> table1_scenarios() {
  return {ScenarioKind::kLinespeed, ScenarioKind::kDup3, ScenarioKind::kDup5,
          ScenarioKind::kCentral3, ScenarioKind::kCentral5};
}

topo::Figure3Options make_options(ScenarioKind kind, std::uint64_t seed) {
  const KindTraits t = traits(kind);
  topo::Figure3Options options;
  options.seed = seed;
  options.use_combiner = t.use_combiner;
  options.combiner.mode =
      t.combine ? core::EdgeMode::kCompare : core::EdgeMode::kDup;
  options.combiner.k = t.k == 0 ? 3 : t.k;
  options.combiner.compare_profile = t.pox
                                         ? controller::CostProfile::pox()
                                         : controller::CostProfile::c_program();
  // The compare must tolerate replica skew but evict attack residue fast.
  options.combiner.compare.hold_timeout = sim::Duration::milliseconds(20);
  // With paper-faithful retention the steady cache is release-rate ×
  // hold-timeout (~420 entries at the Central3 operating point); this
  // capacity makes the cleanup procedure active exactly when the packet
  // rate climbs — the §V-B small-packet jitter mechanism.
  options.combiner.compare.cache_capacity = 512;
  options.combiner.compare.cleanup_low_water = 0.75;
  return options;
}

TcpMeasurement measure_tcp(ScenarioKind kind, int runs, sim::Duration per_run,
                           std::uint64_t seed) {
  NETCO_ASSERT(runs > 0 && per_run > kWarmup);
  TcpMeasurement out;
  for (int run = 0; run < runs; ++run) {
    topo::Figure3Topology topo(
        make_options(kind, seed + static_cast<std::uint64_t>(run)));
    // Direction alternates run by run (the paper swaps client/server
    // after the first 10 runs; alternating is statistically identical).
    const bool reverse = (run % 2) == 1;
    host::Host& src = reverse ? topo.h2() : topo.h1();
    host::Host& dst = reverse ? topo.h1() : topo.h2();

    host::TcpConfig cfg;
    cfg.peer_mac = dst.mac();
    cfg.peer_ip = dst.ip();
    cfg.local_port = 5001;
    cfg.peer_port = 5001;
    host::TcpSender sender(src, cfg);

    host::TcpConfig rcfg = cfg;
    rcfg.peer_mac = src.mac();
    rcfg.peer_ip = src.ip();
    host::TcpReceiver receiver(dst, rcfg);

    sender.start();
    topo.simulator().run_until(sim::TimePoint::origin() + kWarmup);
    receiver.reset_delivered();
    topo.simulator().run_until(sim::TimePoint::origin() + per_run);
    const double secs = (per_run - kWarmup).sec();
    out.per_run_mbps.push_back(
        static_cast<double>(receiver.stats().bytes_delivered) * 8.0 / secs /
        1e6);
  }
  out.mbps = stats::summarize(out.per_run_mbps);
  return out;
}

UdpRun measure_udp_at(ScenarioKind kind, DataRate rate, sim::Duration per_run,
                      std::uint64_t seed, std::size_t payload_bytes) {
  NETCO_ASSERT(per_run > kWarmup);
  topo::Figure3Topology topo(make_options(kind, seed));

  host::UdpSenderConfig scfg;
  scfg.dst_mac = topo.h2().mac();
  scfg.dst_ip = topo.h2().ip();
  scfg.rate = rate;
  scfg.payload_bytes = payload_bytes;
  host::UdpSender sender(topo.h1(), scfg);
  host::UdpSink sink(topo.h2(), scfg.dst_port);

  sender.start();
  topo.simulator().run_until(sim::TimePoint::origin() + kWarmup);
  sink.reset();
  topo.simulator().run_until(sim::TimePoint::origin() + per_run);
  sender.stop();
  // Drain in-flight packets so the loss number reflects real loss, not
  // packets still queued at the instant the run ended.
  topo.simulator().run_for(sim::Duration::milliseconds(50));

  const auto report = sink.report();
  UdpRun out;
  out.offered_mbps = rate.mbps();
  out.loss_rate = report.loss_rate;
  out.jitter_ms = report.jitter_ms;
  // Goodput over the measurement window (drain excluded from the clock).
  const double secs = (per_run - kWarmup).sec();
  out.goodput_mbps = static_cast<double>(report.payload_bytes_unique) * 8.0 /
                     secs / 1e6;
  return out;
}

UdpMax find_udp_max(ScenarioKind kind, double loss_bound,
                    sim::Duration per_run, std::uint64_t seed,
                    std::size_t payload_bytes, double hi_mbps) {
  double lo = 1.0;
  double hi = hi_mbps;
  UdpRun best{};
  // The iperf protocol: adjust -b until the highest rate that keeps loss
  // under the bound. 9 bisection steps resolve ~0.2% of the range.
  for (int step = 0; step < 9; ++step) {
    const double mid = (lo + hi) / 2.0;
    const UdpRun run = measure_udp_at(
        kind, DataRate::kilobits_per_sec(static_cast<std::uint64_t>(mid * 1e3)),
        per_run, seed + static_cast<std::uint64_t>(step), payload_bytes);
    if (run.loss_rate <= loss_bound) {
      lo = mid;
      best = run;
    } else {
      hi = mid;
    }
  }
  UdpMax out;
  out.rate_mbps = best.offered_mbps;
  out.goodput_mbps = best.goodput_mbps;
  out.loss_rate = best.loss_rate;
  out.jitter_ms = best.jitter_ms;
  return out;
}

host::PingReport measure_ping(ScenarioKind kind, int count,
                              sim::Duration interval, std::uint64_t seed) {
  topo::Figure3Topology topo(make_options(kind, seed));
  host::PingConfig cfg;
  cfg.dst_mac = topo.h2().mac();
  cfg.dst_ip = topo.h2().ip();
  cfg.count = count;
  cfg.interval = interval;
  host::IcmpPinger pinger(topo.h1(), cfg);
  pinger.start();
  // Run until the pinger finishes (all replies or timeouts).
  const auto deadline =
      sim::TimePoint::origin() +
      interval * count + cfg.timeout * 2 + sim::Duration::seconds(1);
  while (!pinger.finished() && topo.simulator().now() < deadline) {
    topo.simulator().run_until(topo.simulator().now() +
                               sim::Duration::milliseconds(50));
  }
  return pinger.report();
}

}  // namespace netco::scenario
