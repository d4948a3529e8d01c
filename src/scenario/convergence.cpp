#include "scenario/convergence.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "adversary/behaviors.h"
#include "common/assert.h"
#include "controller/static_routing.h"
#include "device/network.h"
#include "faultinject/fault_plan.h"
#include "faultinject/invariants.h"
#include "host/host.h"
#include "iproute/legacy_router.h"
#include "netco/combiner.h"
#include "openflow/switch.h"
#include "routing/rip.h"
#include "scenario/circuit.h"

namespace netco::scenario {

const char* to_string(RoutingAttack attack) noexcept {
  switch (attack) {
    case RoutingAttack::kNone: return "none";
    case RoutingAttack::kPoison: return "poison";
    case RoutingAttack::kInflate: return "inflate";
    case RoutingAttack::kBlackhole: return "blackhole";
  }
  return "unknown";
}

namespace {

// The diamond's address plan (see convergence.h header art).
constexpr auto kNetA = net::Ipv4Address::from_octets(10, 1, 0, 0);   // hA /24
constexpr auto kNetB = net::Ipv4Address::from_octets(10, 2, 0, 0);   // hB /24
constexpr auto kNetUp = net::Ipv4Address::from_octets(10, 0, 1, 0);  // RA—P—RB
constexpr auto kNetAc = net::Ipv4Address::from_octets(10, 0, 2, 0);  // RA—RC
constexpr auto kNetCd = net::Ipv4Address::from_octets(10, 0, 3, 0);  // RC—RD
constexpr auto kNetDb = net::Ipv4Address::from_octets(10, 0, 4, 0);  // RD—RB

constexpr std::uint16_t kDataPort = 7001;

/// Replicas inside the combiner at P.
constexpr int kReplicas = 3;
/// When the liars switch on (simulated time).
constexpr sim::Duration kAttackStart = sim::Duration::zero();
/// Table-check / goodput-sampling cadence.
constexpr sim::Duration kWindow = sim::Duration::milliseconds(50);
/// hA → hB probe period.
constexpr sim::Duration kDataPeriod = sim::Duration::milliseconds(5);

/// Benign ground-truth table entry; port < 0 = either side of a metric
/// tie is correct (RC/RD reach the far stub at 3 via both neighbors).
struct ExpectedRoute {
  net::Ipv4Address prefix;
  std::uint8_t len = 0;
  std::uint8_t metric = 0;
  int port = -1;
};

faultinject::FaultKind fault_kind(RoutingAttack attack) {
  switch (attack) {
    case RoutingAttack::kPoison: return faultinject::FaultKind::kRoutePoison;
    case RoutingAttack::kBlackhole:
      return faultinject::FaultKind::kBlackholeAd;
    default: return faultinject::FaultKind::kMetricInflate;
  }
}

/// One diamond circuit on its own Simulator, exposing the window protocol
/// of scenario/circuit.h.
class ConvergenceCircuit {
 public:
  explicit ConvergenceCircuit(const ConvergenceOptions& options)
      : opts_(options),
        sim_(options.seed),
        network_(sim_),
        // Unprotected, the one router's releases would need one vote; it
        // has no compare, so no release record ever reaches the rule.
        checker_(faultinject::QuorumTraceChecker::Config{
            .k = options.use_combiner ? kReplicas : 1}) {
    NETCO_ASSERT(opts_.liars >= 0);
    if (opts_.attack == RoutingAttack::kNone) opts_.liars = 0;
    build_topology();
    build_control_plane();
    materialize_plan();
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] obs::TraceSink& trace_sink() noexcept { return checker_; }

  sim::TimePoint start() {
    for (auto& unit : units_) unit.speaker->start();
    for (const faultinject::FaultEvent& event : plan_.events) {
      sim_.schedule_at(sim::TimePoint::from_ns(event.at_ns),
                       [this, &event] { apply_fault(event); });
    }
    data_end_ = sim::TimePoint::origin() + opts_.horizon - kWindow * 2;
    send_probe();
    return sim::TimePoint::origin() + kWindow;
  }

  sim::TimePoint on_window(sim::TimePoint committed) {
    boundaries_.push_back(Boundary{.t_ns = committed.ns(),
                                   .sent = result_.data_sent,
                                   .delivered = delivered_.size(),
                                   .matched = tables_match()});
    if (committed + kWindow > sim::TimePoint::origin() + opts_.horizon) {
      return sim::ShardCell::done_marker();
    }
    return committed + kWindow;
  }

  void finalize() {
    result_.data_delivered = delivered_.size();
    result_.goodput_overall =
        result_.data_sent > 0
            ? static_cast<double>(result_.data_delivered) /
                  static_cast<double>(result_.data_sent)
            : 0.0;

    // Convergence = the first window boundary after the last mismatch,
    // provided the tables then stayed correct through the horizon.
    std::int64_t last_mismatch = -1;
    for (const Boundary& b : boundaries_) {
      if (!b.matched) last_mismatch = b.t_ns;
    }
    result_.converged_correct =
        !boundaries_.empty() && boundaries_.back().matched;
    result_.goodput_during_convergence = result_.goodput_overall;
    if (result_.converged_correct) {
      for (const Boundary& b : boundaries_) {
        if (b.t_ns > last_mismatch) {
          result_.convergence_ns = b.t_ns;
          result_.goodput_during_convergence =
              b.sent > 0 ? static_cast<double>(b.delivered) /
                               static_cast<double>(b.sent)
                         : 0.0;
          break;
        }
      }
    }

    for (const auto& unit : units_) {
      const routing::RipStats& s = unit.speaker->stats();
      result_.updates_sent += s.updates_sent;
      result_.updates_received += s.updates_received;
      result_.route_changes += s.route_changes;
      result_.routes_timed_out += s.routes_timed_out;
    }
    for (const auto* blackhole : blackholes_) {
      result_.data_dropped_by_liars += blackhole->data_dropped();
    }
    result_.invariant_violations = checker_.report().violations;
    result_.stream_hash = checker_.stream_hash();
  }

  [[nodiscard]] ConvergenceResult take_result() {
    return std::move(result_);
  }

 private:
  struct RouterUnit {
    iproute::LegacyRouter* router = nullptr;
    std::unique_ptr<routing::RipSpeaker> speaker;
    std::vector<ExpectedRoute> expected;
  };

  struct Boundary {
    std::int64_t t_ns = 0;
    std::uint64_t sent = 0;
    std::size_t delivered = 0;
    bool matched = false;
  };

  void build_topology() {
    const auto ip = net::Ipv4Address::from_octets;
    const auto mac_ha = net::MacAddress::from_id(1);
    const auto mac_hb = net::MacAddress::from_id(2);
    mac_ra_ = {net::MacAddress::from_id(10), net::MacAddress::from_id(11),
               net::MacAddress::from_id(12)};
    mac_rb_ = {net::MacAddress::from_id(20), net::MacAddress::from_id(21),
               net::MacAddress::from_id(22)};
    mac_rc_ = {net::MacAddress::from_id(30), net::MacAddress::from_id(31)};
    mac_rd_ = {net::MacAddress::from_id(40), net::MacAddress::from_id(41)};

    ha_ = &network_.add_node<host::Host>("hA", mac_ha, ip(10, 1, 0, 2));
    hb_ = &network_.add_node<host::Host>("hB", mac_hb, ip(10, 2, 0, 2));
    auto& ra = network_.add_node<iproute::LegacyRouter>("RA");
    auto& rb = network_.add_node<iproute::LegacyRouter>("RB");
    auto& rc = network_.add_node<iproute::LegacyRouter>("RC");
    auto& rd = network_.add_node<iproute::LegacyRouter>("RD");

    // Interface order must equal port-creation order below.
    ra.add_interface({mac_ra_[0], ip(10, 1, 0, 1)});
    ra.add_interface({mac_ra_[1], ip(10, 0, 1, 1)});
    ra.add_interface({mac_ra_[2], ip(10, 0, 2, 1)});
    rb.add_interface({mac_rb_[0], ip(10, 2, 0, 1)});
    rb.add_interface({mac_rb_[1], ip(10, 0, 1, 2)});
    rb.add_interface({mac_rb_[2], ip(10, 0, 4, 2)});
    rc.add_interface({mac_rc_[0], ip(10, 0, 2, 2)});
    rc.add_interface({mac_rc_[1], ip(10, 0, 3, 1)});
    rd.add_interface({mac_rd_[0], ip(10, 0, 3, 2)});
    rd.add_interface({mac_rd_[1], ip(10, 0, 4, 1)});

    const link::LinkConfig link{};
    network_.connect(*ha_, ra, link);  // RA port 0
    network_.connect(*hb_, rb, link);  // RB port 0

    // The router position P on the RA—RB hop: RA/RB port 1 either way.
    if (opts_.use_combiner) {
      core::CombinerOptions copts;
      copts.k = kReplicas;
      combiner_ = core::build_combiner(
          network_, copts,
          {core::PortAttachment{.neighbor = &ra,
                                .link = link,
                                .local_macs = {mac_ra_[1]}},
           core::PortAttachment{.neighbor = &rb,
                                .link = link,
                                .local_macs = {mac_rb_[1]}}},
          "conv");
      combiner_.install_replica_route(mac_ra_[1], 0);
      combiner_.install_replica_route(mac_rb_[1], 1);
    } else {
      auto& p = network_.add_node<openflow::OpenFlowSwitch>(
          "p", core::default_replica_profiles()[0]);
      const auto ra_p = network_.connect(ra, p, link);
      const auto p_rb = network_.connect(p, rb, link);
      controller::install_mac_route(p, mac_rb_[1], p_rb.a_port);
      controller::install_mac_route(p, mac_ra_[1], ra_p.b_port);
      unprotected_ = &p;
    }

    network_.connect(ra, rc, link);  // RA port 2, RC port 0
    network_.connect(rc, rd, link);  // RC port 1, RD port 0
    network_.connect(rd, rb, link);  // RD port 1, RB port 2

    // Connected networks: the harness owns their FIB entries (the
    // speakers only advertise them).
    ra.add_route(kNetA, 24, {0, mac_ha});
    ra.add_route(kNetUp, 30, {1, mac_rb_[1]});
    ra.add_route(kNetAc, 30, {2, mac_rc_[0]});
    rb.add_route(kNetB, 24, {0, mac_hb});
    rb.add_route(kNetUp, 30, {1, mac_ra_[1]});
    rb.add_route(kNetDb, 30, {2, mac_rd_[1]});
    rc.add_route(kNetAc, 30, {0, mac_ra_[2]});
    rc.add_route(kNetCd, 30, {1, mac_rd_[0]});
    rd.add_route(kNetCd, 30, {0, mac_rc_[1]});
    rd.add_route(kNetDb, 30, {1, mac_rb_[2]});

    units_.resize(4);
    units_[0].router = &ra;
    units_[1].router = &rb;
    units_[2].router = &rc;
    units_[3].router = &rd;

    hb_->bind_udp(kDataPort, [this](const net::ParsedPacket& parsed,
                                    const net::Packet& packet) {
      if (packet.size() < parsed.payload_offset + 4) return;
      std::uint32_t seq = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        seq = (seq << 8) |
              std::to_integer<std::uint32_t>(
                  packet.slice(parsed.payload_offset + i, 1)[0]);
      }
      delivered_.insert(seq);
    });
  }

  void build_control_plane() {
    const auto ip = net::Ipv4Address::from_octets;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      routing::RipConfig cfg;
      // Stagger the first periodic update so the four speakers never
      // announce in lockstep.
      cfg.first_update +=
          sim::Duration::milliseconds(7) * static_cast<std::int64_t>(i);
      units_[i].speaker =
          std::make_unique<routing::RipSpeaker>(*units_[i].router, cfg);
    }
    routing::RipSpeaker& ra = *units_[0].speaker;
    routing::RipSpeaker& rb = *units_[1].speaker;
    routing::RipSpeaker& rc = *units_[2].speaker;
    routing::RipSpeaker& rd = *units_[3].speaker;

    ra.add_connected(kNetA, 24, 0);
    ra.add_connected(kNetUp, 30, 1);
    ra.add_connected(kNetAc, 30, 2);
    rb.add_connected(kNetB, 24, 0);
    rb.add_connected(kNetUp, 30, 1);
    rb.add_connected(kNetDb, 30, 2);
    rc.add_connected(kNetAc, 30, 0);
    rc.add_connected(kNetCd, 30, 1);
    rd.add_connected(kNetCd, 30, 0);
    rd.add_connected(kNetDb, 30, 1);

    ra.add_neighbor({1, ip(10, 0, 1, 2), mac_rb_[1]});
    ra.add_neighbor({2, ip(10, 0, 2, 2), mac_rc_[0]});
    rb.add_neighbor({1, ip(10, 0, 1, 1), mac_ra_[1]});
    rb.add_neighbor({2, ip(10, 0, 4, 1), mac_rd_[1]});
    rc.add_neighbor({0, ip(10, 0, 2, 1), mac_ra_[2]});
    rc.add_neighbor({1, ip(10, 0, 3, 2), mac_rd_[0]});
    rd.add_neighbor({0, ip(10, 0, 3, 1), mac_rc_[1]});
    rd.add_neighbor({1, ip(10, 0, 4, 2), mac_rb_[2]});

    // Benign ground truth (Bellman–Ford fixed point of the diamond).
    units_[0].expected = {{kNetA, 24, 1, 0},  {kNetUp, 30, 1, 1},
                          {kNetAc, 30, 1, 2}, {kNetB, 24, 2, 1},
                          {kNetDb, 30, 2, 1}, {kNetCd, 30, 2, 2}};
    units_[1].expected = {{kNetB, 24, 1, 0},  {kNetUp, 30, 1, 1},
                          {kNetDb, 30, 1, 2}, {kNetA, 24, 2, 1},
                          {kNetAc, 30, 2, 1}, {kNetCd, 30, 2, 2}};
    units_[2].expected = {{kNetAc, 30, 1, 0}, {kNetCd, 30, 1, 1},
                          {kNetA, 24, 2, 0},  {kNetUp, 30, 2, 0},
                          {kNetDb, 30, 2, 1}, {kNetB, 24, 3, -1}};
    units_[3].expected = {{kNetCd, 30, 1, 0}, {kNetDb, 30, 1, 1},
                          {kNetB, 24, 2, 1},  {kNetUp, 30, 2, 1},
                          {kNetAc, 30, 2, 0}, {kNetA, 24, 3, -1}};
  }

  void materialize_plan() {
    for (int i = 0; i < opts_.liars; ++i) {
      faultinject::FaultEvent event;
      event.at_ns = kAttackStart.ns();
      event.kind = fault_kind(opts_.attack);
      event.edge = -1;
      event.replica = i;
      plan_.events.push_back(event);
    }
    plan_.normalize();
  }

  void apply_fault(const faultinject::FaultEvent& event) {
    std::unique_ptr<device::DatapathInterceptor> behavior;
    switch (event.kind) {
      case faultinject::FaultKind::kRoutePoison:
        behavior = std::make_unique<adversary::RoutePoisonBehavior>(
            adversary::match_all());
        break;
      case faultinject::FaultKind::kMetricInflate:
        behavior = std::make_unique<adversary::MetricInflateBehavior>(
            adversary::match_all());
        break;
      case faultinject::FaultKind::kBlackholeAd: {
        auto blackhole = std::make_unique<adversary::BlackholeAdBehavior>(
            adversary::match_all());
        blackholes_.push_back(blackhole.get());
        behavior = std::move(blackhole);
        break;
      }
      default:
        return;  // this harness only speaks the routing.* vocabulary
    }
    openflow::OpenFlowSwitch* target;
    if (opts_.use_combiner) {
      const auto idx = static_cast<std::size_t>(
          std::clamp(event.replica, 0, kReplicas - 1));
      target = combiner_.replicas[idx];
    } else {
      target = unprotected_;
    }
    interceptors_.push_back(std::move(behavior));
    target->set_interceptor(interceptors_.back().get());
    ++result_.fault_events_applied;
  }

  void send_probe() {
    if (sim_.now() >= data_end_) return;
    const std::uint32_t seq = probe_seq_++;
    std::vector<std::byte> payload(16, std::byte{0});
    for (std::size_t i = 0; i < 4; ++i) {
      payload[i] = static_cast<std::byte>((seq >> (24 - 8 * i)) & 0xFF);
    }
    net::Packet probe = net::build_udp(
        net::EthernetHeader{.dst = mac_ra_[0], .src = ha_->mac()},
        std::nullopt,
        net::Ipv4Header{.src = ha_->ip(),
                        .dst = hb_->ip(),
                        .proto = net::IpProto::Udp,
                        .identification = ha_->next_ip_id()},
        net::UdpHeader{.src_port = kDataPort, .dst_port = kDataPort},
        payload);
    ha_->transmit(std::move(probe));
    ++result_.data_sent;
    sim_.schedule_after(kDataPeriod, [this] { send_probe(); });
  }

  [[nodiscard]] bool tables_match() const {
    for (const RouterUnit& unit : units_) {
      std::vector<routing::RipRouteView> live;
      for (const routing::RipRouteView& r : unit.speaker->table()) {
        if (r.metric < routing::kRipInfinity) live.push_back(r);
      }
      if (live.size() != unit.expected.size()) return false;
      for (const ExpectedRoute& e : unit.expected) {
        const auto it = std::find_if(
            live.begin(), live.end(), [&](const routing::RipRouteView& r) {
              return r.prefix == e.prefix && r.len == e.len;
            });
        if (it == live.end() || it->metric != e.metric) return false;
        if (e.port >= 0 &&
            it->port != static_cast<device::PortIndex>(e.port)) {
          return false;
        }
      }
    }
    return true;
  }

  ConvergenceOptions opts_;
  sim::Simulator sim_;
  device::Network network_;
  faultinject::QuorumTraceChecker checker_;
  faultinject::FaultPlan plan_;

  host::Host* ha_ = nullptr;
  host::Host* hb_ = nullptr;
  std::vector<net::MacAddress> mac_ra_, mac_rb_, mac_rc_, mac_rd_;
  core::CombinerInstance combiner_;
  openflow::OpenFlowSwitch* unprotected_ = nullptr;
  std::vector<RouterUnit> units_;

  std::vector<std::unique_ptr<device::DatapathInterceptor>> interceptors_;
  std::vector<adversary::BlackholeAdBehavior*> blackholes_;

  std::uint32_t probe_seq_ = 0;
  std::unordered_set<std::uint32_t> delivered_;
  sim::TimePoint data_end_;
  std::vector<Boundary> boundaries_;
  ConvergenceResult result_;
};

}  // namespace

ConvergenceResult run_convergence(const ConvergenceOptions& options) {
  return run_circuit<ConvergenceCircuit>(options);
}

FleetResult<ConvergenceResult> run_convergence_fleet(
    const ConvergenceOptions& base, std::size_t circuits, int shards) {
  return run_fleet<ConvergenceCircuit>(base, circuits, shards);
}

}  // namespace netco::scenario
