#include "scenario/failover.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/assert.h"
#include "failover/failover_compiler.h"
#include "faultinject/invariants.h"
#include "host/host.h"
#include "openflow/switch.h"
#include "scenario/circuit.h"

namespace netco::scenario {

namespace {

/// Flow f's receiver binds kFlowPortBase + f — one destination host per
/// flow, so the port alone identifies the flow on delivery.
constexpr std::uint16_t kFlowPortBase = 7100;

/// Replicas inside the combiner at the protected position.
constexpr int kCombinerReplicas = 3;
constexpr topo::AggPosition kProtect{0, 0};

/// Goodput-attribution window (also the fleet commit cadence).
constexpr sim::Duration kWindow = sim::Duration::milliseconds(25);
constexpr sim::Duration kDataPeriod = sim::Duration::milliseconds(1);
/// First packet of flow 0; flow f starts kFlowStart + f·kFlowStagger so
/// the fabric never sees lockstep bursts.
constexpr sim::Duration kFlowStart = sim::Duration::milliseconds(10);
constexpr sim::Duration kFlowStagger = sim::Duration::microseconds(137);

/// One fat-tree circuit on its own Simulator, exposing the window
/// protocol of scenario/circuit.h.
class FailoverCircuit {
 public:
  explicit FailoverCircuit(const FailoverOptions& options)
      : opts_(options),
        topo_(make_topo_options(options)),
        checker_(faultinject::QuorumTraceChecker::Config{
            .k = kCombinerReplicas,
            .check_duplicates = true,
            .audit_reroutes = true}) {
    NETCO_ASSERT(opts_.horizon >= kWindow * 4);
    if (opts_.compile_backup_rules) {
      summary_ = failover::compile_failover(topo_);
    }
    materialize_plan();
    injector_.emplace(topo_, plan_);
    const std::int64_t horizon_ns = opts_.horizon.ns();
    windows_ = static_cast<std::size_t>((horizon_ns + kWindow.ns() - 1) /
                                        kWindow.ns());
    sent_w_.assign(windows_, 0);
    delivered_w_.assign(windows_, 0);
    build_flows();
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return topo_.simulator();
  }
  [[nodiscard]] obs::TraceSink& trace_sink() noexcept { return checker_; }

  sim::TimePoint start() {
    injector_->arm();
    data_end_ = sim::TimePoint::origin() + opts_.horizon - kWindow * 2;
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      topo_.simulator().schedule_at(
          sim::TimePoint::origin() +
              sim::Duration::nanoseconds(flows_[f].offset_ns),
          [this, f] { send_flow(f); });
    }
    return sim::TimePoint::origin() + kWindow;
  }

  sim::TimePoint on_window(sim::TimePoint committed) {
    if (committed + kWindow > sim::TimePoint::origin() + opts_.horizon) {
      return sim::ShardCell::done_marker();
    }
    return committed + kWindow;
  }

  void finalize() {
    for (const Flow& flow : flows_) {
      result_.data_delivered += flow.delivered.size();
    }
    result_.goodput_overall =
        result_.data_sent > 0
            ? static_cast<double>(result_.data_delivered) /
                  static_cast<double>(result_.data_sent)
            : 0.0;

    // The per-window ledger: last window with traffic, last lossy window.
    std::ptrdiff_t last_data = -1;
    std::ptrdiff_t last_lossy = -1;
    for (std::size_t w = 0; w < windows_; ++w) {
      if (sent_w_[w] == 0) continue;
      last_data = static_cast<std::ptrdiff_t>(w);
      if (delivered_w_[w] < sent_w_[w]) {
        last_lossy = static_cast<std::ptrdiff_t>(w);
      }
    }
    const std::int64_t window_ns = kWindow.ns();
    if (fail_at_ns_ >= 0 && last_data >= 0) {
      const auto fail_w = static_cast<std::ptrdiff_t>(
          std::min<std::int64_t>(fail_at_ns_ / window_ns,
                                 static_cast<std::int64_t>(windows_ - 1)));
      double dip = 1.0;
      for (std::ptrdiff_t w = fail_w; w <= last_data; ++w) {
        const auto uw = static_cast<std::size_t>(w);
        if (sent_w_[uw] == 0) continue;
        dip = std::min(dip, static_cast<double>(delivered_w_[uw]) /
                                static_cast<double>(sent_w_[uw]));
      }
      result_.goodput_dip = dip;
    }
    result_.recovered = last_data >= 0 && last_lossy < last_data;
    if (last_lossy < 0) {
      result_.reroute_latency_ns = 0;
    } else if (result_.recovered) {
      result_.reroute_latency_ns =
          (last_lossy + 1) * window_ns -
          (fail_at_ns_ >= 0 ? fail_at_ns_ : 0);
    } else {
      result_.reroute_latency_ns = -1;
    }

    for (int sid = 0; sid < topo_.switch_count(); ++sid) {
      const openflow::OpenFlowSwitch* sw = topo_.switch_by_sid(sid);
      if (sw == nullptr) continue;  // the wrapped combiner position
      const openflow::SwitchStats& s = sw->stats();
      result_.static_backup_hits += s.static_backup_hits;
      result_.failover_reroutes += s.failover_reroutes;
      result_.dropped_no_rule += s.dropped_no_rule;
      result_.controller_packet_ins += s.packet_ins_sent;
    }

    result_.backup_rules_installed = summary_.rules_installed;
    result_.primaries_guarded = summary_.primaries_guarded;
    result_.fault_events = static_cast<std::uint64_t>(injector_->applied());
    result_.checker_reroutes = checker_.reroutes();
    result_.duplicates = checker_.duplicates();
    result_.invariant_violations = checker_.report().violations;
    result_.stream_hash = checker_.stream_hash();
    result_.absorbed = result_.recovered &&
                       result_.invariant_violations == 0 &&
                       result_.duplicates == 0 &&
                       result_.controller_packet_ins == 0;
  }

  [[nodiscard]] FailoverResult take_result() { return std::move(result_); }

 private:
  struct Flow {
    host::Host* src = nullptr;
    host::Host* dst = nullptr;
    std::uint16_t port = 0;
    std::int64_t offset_ns = 0;  ///< first send, relative to the origin
    std::uint32_t next_seq = 0;
    std::unordered_set<std::uint32_t> delivered;
  };

  static topo::FatTreeOptions make_topo_options(
      const FailoverOptions& options) {
    topo::FatTreeOptions topts;
    topts.k = FailoverOptions::kRadix;
    topts.seed = options.seed;
    topts.combine_agg = kProtect;
    topts.combiner.k = kCombinerReplicas;
    return topts;
  }

  void materialize_plan() {
    plan_ = opts_.plan;
    if (plan_.empty() && opts_.link_cuts + opts_.switch_kills > 0) {
      plan_ = faultinject::make_kill_plan(
          topo_, {.seed = opts_.seed,
                  .link_cuts = opts_.link_cuts,
                  .switch_kills = opts_.switch_kills,
                  .at = FailoverOptions::kFailAt,
                  .target = opts_.target});
    }
    plan_.normalize();
    for (const faultinject::FaultEvent& event : plan_.events) {
      switch (event.kind) {
        case faultinject::FaultKind::kFabricLinkCut:
        case faultinject::FaultKind::kFabricLinkRestore:
        case faultinject::FaultKind::kSwitchKill:
        case faultinject::FaultKind::kSwitchRestart:
          if (fail_at_ns_ < 0 || event.at_ns < fail_at_ns_) {
            fail_at_ns_ = event.at_ns;
          }
          break;
        default:
          break;
      }
    }
  }

  /// Every host streams to its counterpart one pod over: flow
  /// (p, e, i) → ((p+1) mod k, e, i). All flows are inter-pod, so every
  /// one crosses an aggregation tier and the core in both pods.
  void build_flows() {
    const int k = FailoverOptions::kRadix;
    const int h = k / 2;
    flows_.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(h) *
                   static_cast<std::size_t>(h));
    for (int p = 0; p < k; ++p) {
      for (int e = 0; e < h; ++e) {
        for (int i = 0; i < h; ++i) {
          const std::size_t f = flows_.size();
          Flow flow;
          flow.src = &topo_.host(p, e, i);
          flow.dst = &topo_.host((p + 1) % k, e, i);
          flow.port = static_cast<std::uint16_t>(kFlowPortBase + f);
          flow.offset_ns = kFlowStart.ns() +
                           static_cast<std::int64_t>(f) * kFlowStagger.ns();
          flows_.push_back(std::move(flow));
          flows_.back().dst->bind_udp(
              flows_.back().port,
              [this, f](const net::ParsedPacket& parsed,
                        const net::Packet& packet) {
                on_delivery(f, parsed, packet);
              });
        }
      }
    }
    NETCO_ASSERT(!flows_.empty());
  }

  [[nodiscard]] std::size_t window_of(std::size_t f,
                                      std::uint32_t seq) const {
    const std::int64_t at = flows_[f].offset_ns +
                            static_cast<std::int64_t>(seq) * kDataPeriod.ns();
    const auto w = static_cast<std::size_t>(at / kWindow.ns());
    return std::min(w, windows_ - 1);
  }

  void send_flow(std::size_t f) {
    if (topo_.simulator().now() >= data_end_) return;
    Flow& flow = flows_[f];
    const std::uint32_t seq = flow.next_seq++;
    // Payload: seq big-endian in bytes 0..3, flow id in 4..7 — every
    // packet's content (and hence trace id) is unique across the run.
    std::vector<std::byte> payload(16, std::byte{0});
    for (std::size_t i = 0; i < 4; ++i) {
      payload[i] = static_cast<std::byte>((seq >> (24 - 8 * i)) & 0xFF);
      payload[4 + i] = static_cast<std::byte>(
          (static_cast<std::uint32_t>(f) >> (24 - 8 * i)) & 0xFF);
    }
    net::Packet probe = net::build_udp(
        net::EthernetHeader{.dst = flow.dst->mac(), .src = flow.src->mac()},
        std::nullopt,
        net::Ipv4Header{.src = flow.src->ip(),
                        .dst = flow.dst->ip(),
                        .proto = net::IpProto::Udp,
                        .identification = flow.src->next_ip_id()},
        net::UdpHeader{.src_port = kFlowPortBase, .dst_port = flow.port},
        payload);
    flow.src->transmit(std::move(probe));
    ++result_.data_sent;
    ++sent_w_[window_of(f, seq)];
    topo_.simulator().schedule_after(kDataPeriod, [this, f] { send_flow(f); });
  }

  void on_delivery(std::size_t f, const net::ParsedPacket& parsed,
                   const net::Packet& packet) {
    if (packet.size() < parsed.payload_offset + 4) return;
    std::uint32_t seq = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      seq = (seq << 8) | std::to_integer<std::uint32_t>(
                             packet.slice(parsed.payload_offset + i, 1)[0]);
    }
    if (!flows_[f].delivered.insert(seq).second) return;
    ++delivered_w_[window_of(f, seq)];
  }

  FailoverOptions opts_;
  topo::FatTreeTopology topo_;
  faultinject::QuorumTraceChecker checker_;
  failover::CompileSummary summary_;
  faultinject::FaultPlan plan_;
  std::optional<faultinject::FabricFaultInjector> injector_;
  std::int64_t fail_at_ns_ = -1;

  std::vector<Flow> flows_;
  std::size_t windows_ = 0;
  std::vector<std::uint64_t> sent_w_;
  std::vector<std::uint64_t> delivered_w_;

  sim::TimePoint data_end_;
  FailoverResult result_;
};

}  // namespace

FailoverResult run_failover(const FailoverOptions& options) {
  return run_circuit<FailoverCircuit>(options);
}

FleetResult<FailoverResult> run_failover_fleet(const FailoverOptions& base,
                                               std::size_t circuits,
                                               int shards) {
  return run_fleet<FailoverCircuit>(base, circuits, shards);
}

}  // namespace netco::scenario
