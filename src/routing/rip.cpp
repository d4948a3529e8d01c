#include "routing/rip.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/hash.h"
#include "obs/observability.h"

namespace netco::routing {

namespace {

constexpr sim::Duration kUpdatePeriod = sim::Duration::milliseconds(200);
/// A route not re-confirmed within this window is invalidated.
constexpr sim::Duration kTimeout = sim::Duration::milliseconds(1000);
/// An invalidated route is advertised at metric 16 for this long, then
/// deleted.
constexpr sim::Duration kGc = sim::Duration::milliseconds(400);
/// Coalescing delay for triggered updates (RFC 2453 §3.10.1).
constexpr sim::Duration kTriggeredDelay = sim::Duration::milliseconds(10);
/// Timer wheel quantum (route timers are millisecond-scale).
constexpr sim::Duration kWheelTick = sim::Duration::milliseconds(1);

}  // namespace

RipSpeaker::RipSpeaker(iproute::LegacyRouter& router, RipConfig config)
    : router_(router),
      config_(config),
      wheel_(router.datapath_simulator(),
             sim::TimerWheelConfig{.tick = kWheelTick}),
      obs_(&obs::global()) {
  transport_ = [this](device::PortIndex port, net::Packet packet) {
    router_.raw_output(port, std::move(packet));
  };
}

RipSpeaker::~RipSpeaker() {
  if (started_) router_.set_local_delivery(nullptr);
}

void RipSpeaker::add_connected(net::Ipv4Address prefix, int len,
                               device::PortIndex port) {
  NETCO_ASSERT(len >= 0 && len <= 32);
  NETCO_ASSERT(find(prefix, static_cast<std::uint8_t>(len)) < 0);
  const std::uint32_t slot = allocate_slot();
  Route& route = routes_[slot];
  route.prefix = prefix;
  route.len = static_cast<std::uint8_t>(len);
  route.metric = 1;
  route.port = port;
  route.next_hop = net::Ipv4Address{};
  route.next_mac = net::MacAddress{};
  route.connected = true;
  route.live = true;
}

void RipSpeaker::add_neighbor(RipNeighbor neighbor) {
  NETCO_ASSERT_MSG(!started_, "add_neighbor before start()");
  neighbors_.push_back(neighbor);
}

void RipSpeaker::start() {
  NETCO_ASSERT_MSG(!started_, "RipSpeaker::start is one-shot");
  started_ = true;
  router_.set_local_delivery([this](device::PortIndex in_port,
                                    const net::ParsedPacket& parsed,
                                    const net::Packet& packet) {
    handle_datagram(in_port, parsed, packet);
  });
  wheel_.schedule_after(config_.first_update, &RipSpeaker::on_periodic, this,
                        0);
}

std::optional<RipRouteView> RipSpeaker::route(net::Ipv4Address prefix,
                                              int len) const {
  const std::int32_t idx = find(prefix, static_cast<std::uint8_t>(len));
  if (idx < 0) return std::nullopt;
  const Route& r = routes_[static_cast<std::size_t>(idx)];
  return RipRouteView{.prefix = r.prefix,
                      .len = r.len,
                      .metric = r.metric,
                      .port = r.port,
                      .next_hop = r.next_hop,
                      .connected = r.connected};
}

std::vector<RipRouteView> RipSpeaker::table() const {
  std::vector<RipRouteView> out;
  out.reserve(routes_.size());
  for (const Route& r : routes_) {
    if (!r.live) continue;
    out.push_back(RipRouteView{.prefix = r.prefix,
                               .len = r.len,
                               .metric = r.metric,
                               .port = r.port,
                               .next_hop = r.next_hop,
                               .connected = r.connected});
  }
  return out;
}

// --- timer trampolines -------------------------------------------------------

void RipSpeaker::on_periodic(void* ctx, std::uint64_t) {
  auto* self = static_cast<RipSpeaker*>(ctx);
  self->send_updates();
  self->wheel_.schedule_after(kUpdatePeriod, &RipSpeaker::on_periodic, self,
                              0);
}

void RipSpeaker::on_triggered(void* ctx, std::uint64_t) {
  auto* self = static_cast<RipSpeaker*>(ctx);
  self->triggered_pending_ = false;
  ++self->stats_.triggered_updates;
  self->send_updates();
}

void RipSpeaker::on_timeout(void* ctx, std::uint64_t slot) {
  auto* self = static_cast<RipSpeaker*>(ctx);
  Route& route = self->routes_[static_cast<std::size_t>(slot)];
  ++self->stats_.routes_timed_out;
  self->obs_->tracer.emit(
      self->router_.datapath_simulator().now().ns(),
      obs::TraceEvent::kRoutingRouteTimeout,
      hash_mix(route.prefix.value(), route.len), self->router_.name());
  self->invalidate(static_cast<std::uint32_t>(slot));
}

void RipSpeaker::on_gc(void* ctx, std::uint64_t slot) {
  auto* self = static_cast<RipSpeaker*>(ctx);
  ++self->stats_.routes_gced;
  self->remove(static_cast<std::uint32_t>(slot));
}

// --- receive path ------------------------------------------------------------

void RipSpeaker::handle_datagram(device::PortIndex in_port,
                                 const net::ParsedPacket& parsed,
                                 const net::Packet& packet) {
  if (!is_rip_datagram(parsed)) return;  // other protocols are not ours
  const RipNeighbor* neighbor = nullptr;
  for (const RipNeighbor& candidate : neighbors_) {
    if (candidate.ip == parsed.ipv4->src && candidate.port == in_port) {
      neighbor = &candidate;
      break;
    }
  }
  const auto message = parse(packet.slice(
      parsed.payload_offset, packet.size() - parsed.payload_offset));
  if (neighbor == nullptr || !message) {
    ++stats_.malformed_dropped;
    return;
  }
  ++stats_.updates_received;
  obs_->tracer.emit(router_.datapath_simulator().now().ns(),
                    obs::TraceEvent::kRoutingUpdateRx, packet.content_hash(),
                    router_.name(), -1,
                    static_cast<std::uint32_t>(packet.size()));
  for (const RipEntry& entry : message->entries) {
    if (entry.len > 32) continue;
    process_entry(*neighbor, entry);
  }
}

void RipSpeaker::process_entry(const RipNeighbor& neighbor,
                               const RipEntry& entry) {
  // Bellman–Ford relaxation, RFC 2453 §3.9.2. A malicious metric below 1
  // (route poisoning advertises 0) still clamps to offered >= 1.
  const std::uint8_t offered = static_cast<std::uint8_t>(
      std::min<int>(entry.metric + 1, kRipInfinity));
  const std::int32_t idx = find(entry.prefix, entry.len);

  if (idx < 0) {
    if (offered >= kRipInfinity) return;  // nothing to withdraw
    const std::uint32_t slot = allocate_slot();
    Route& route = routes_[slot];
    route.prefix = entry.prefix;
    route.len = entry.len;
    route.metric = offered;
    route.port = neighbor.port;
    route.next_hop = neighbor.ip;
    route.next_mac = neighbor.mac;
    route.connected = false;
    route.live = true;
    router_.add_route(route.prefix, route.len,
                      iproute::NextHop{.port = route.port,
                                       .next_mac = route.next_mac});
    arm_timeout(slot);
    note_change(route);
    schedule_triggered();
    return;
  }

  Route& route = routes_[static_cast<std::size_t>(idx)];
  if (route.connected) return;  // directly attached networks never move

  if (route.next_hop == neighbor.ip && route.port == neighbor.port) {
    // News from the route's own next hop is authoritative either way.
    if (offered == route.metric) {
      if (route.metric < kRipInfinity) arm_timeout(static_cast<std::uint32_t>(idx));
      return;
    }
    if (offered >= kRipInfinity) {
      if (route.metric < kRipInfinity) {
        wheel_.cancel(route.timeout_timer);
        route.timeout_timer = sim::TimerWheel::kInvalidTimerId;
        invalidate(static_cast<std::uint32_t>(idx));
      }
      return;
    }
    const bool was_dead = route.metric >= kRipInfinity;
    route.metric = offered;
    if (was_dead) {
      wheel_.cancel(route.gc_timer);
      route.gc_timer = sim::TimerWheel::kInvalidTimerId;
      router_.add_route(route.prefix, route.len,
                        iproute::NextHop{.port = route.port,
                                         .next_mac = route.next_mac});
    }
    arm_timeout(static_cast<std::uint32_t>(idx));
    note_change(route);
    schedule_triggered();
    return;
  }

  if (offered < route.metric) {
    // A strictly better path through another neighbor replaces the route
    // (and resurrects one sitting in its garbage-collection window).
    wheel_.cancel(route.gc_timer);
    route.gc_timer = sim::TimerWheel::kInvalidTimerId;
    route.metric = offered;
    route.port = neighbor.port;
    route.next_hop = neighbor.ip;
    route.next_mac = neighbor.mac;
    router_.add_route(route.prefix, route.len,
                      iproute::NextHop{.port = route.port,
                                       .next_mac = route.next_mac});
    arm_timeout(static_cast<std::uint32_t>(idx));
    note_change(route);
    schedule_triggered();
  }
}

// --- announcement path -------------------------------------------------------

void RipSpeaker::send_updates() {
  for (const RipNeighbor& neighbor : neighbors_) {
    send_update_to(neighbor);
  }
}

void RipSpeaker::send_update_to(const RipNeighbor& neighbor) {
  NETCO_ASSERT(neighbor.port < router_.interfaces().size());
  const iproute::Interface& iface = router_.interfaces()[neighbor.port];
  RipMessage message;
  message.seq = seq_++;
  for (const Route& route : routes_) {
    if (!route.live) continue;
    // Split horizon with poisoned reverse: routes learned through this
    // neighbor are advertised back to it as unreachable.
    const bool poisoned = !route.connected &&
                          route.next_hop == neighbor.ip &&
                          route.port == neighbor.port;
    message.entries.push_back(RipEntry{
        .prefix = route.prefix,
        .len = route.len,
        .metric = poisoned ? kRipInfinity : route.metric});
  }
  const std::vector<std::byte> payload = serialize(message);
  net::Packet packet = net::build_udp(
      net::EthernetHeader{.dst = neighbor.mac, .src = iface.mac},
      std::nullopt,
      net::Ipv4Header{.src = iface.ip,
                      .dst = neighbor.ip,
                      .proto = net::IpProto::Udp,
                      .ttl = 2,
                      .identification = static_cast<std::uint16_t>(message.seq)},
      net::UdpHeader{.src_port = kRipPort, .dst_port = kRipPort}, payload);
  ++stats_.updates_sent;
  obs_->tracer.emit(router_.datapath_simulator().now().ns(),
                    obs::TraceEvent::kRoutingUpdateTx, packet.content_hash(),
                    router_.name(), -1,
                    static_cast<std::uint32_t>(packet.size()));
  transport_(neighbor.port, std::move(packet));
}

// --- table bookkeeping -------------------------------------------------------

void RipSpeaker::arm_timeout(std::uint32_t slot) {
  Route& route = routes_[slot];
  wheel_.cancel(route.timeout_timer);
  route.timeout_timer =
      wheel_.schedule_after(kTimeout, &RipSpeaker::on_timeout, this, slot);
}

void RipSpeaker::invalidate(std::uint32_t slot) {
  Route& route = routes_[slot];
  route.metric = kRipInfinity;
  router_.remove_route(route.prefix, route.len);
  wheel_.cancel(route.gc_timer);
  route.gc_timer =
      wheel_.schedule_after(kGc, &RipSpeaker::on_gc, this, slot);
  note_change(route);
  schedule_triggered();
}

void RipSpeaker::remove(std::uint32_t slot) {
  Route& route = routes_[slot];
  wheel_.cancel(route.timeout_timer);
  wheel_.cancel(route.gc_timer);
  route.timeout_timer = sim::TimerWheel::kInvalidTimerId;
  route.gc_timer = sim::TimerWheel::kInvalidTimerId;
  route.live = false;
  free_slots_.push_back(slot);
}

void RipSpeaker::schedule_triggered() {
  if (!started_ || triggered_pending_) return;
  triggered_pending_ = true;
  wheel_.schedule_after(kTriggeredDelay, &RipSpeaker::on_triggered, this, 0);
}

void RipSpeaker::note_change(const Route& route) {
  ++stats_.route_changes;
  obs_->tracer.emit(
      router_.datapath_simulator().now().ns(),
      obs::TraceEvent::kRoutingRouteChange,
      hash_mix(route.prefix.value(),
               (static_cast<std::uint64_t>(route.len) << 24) |
                   (static_cast<std::uint64_t>(route.metric) << 16) |
                   static_cast<std::uint64_t>(route.port)),
      router_.name());
}

std::int32_t RipSpeaker::find(net::Ipv4Address prefix,
                              std::uint8_t len) const {
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    const Route& route = routes_[i];
    if (route.live && route.prefix == prefix && route.len == len) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

std::uint32_t RipSpeaker::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  routes_.emplace_back();
  return static_cast<std::uint32_t>(routes_.size() - 1);
}

}  // namespace netco::routing
