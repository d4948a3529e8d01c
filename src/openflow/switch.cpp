#include "openflow/switch.h"

#include <utility>

#include "common/assert.h"
#include "common/log.h"
#include "net/headers.h"
#include "openflow/channel.h"

namespace netco::openflow {

OpenFlowSwitch::OpenFlowSwitch(sim::Simulator& simulator, std::string name,
                               SwitchProfile profile)
    : Node(simulator, std::move(name)),
      profile_(std::move(profile)),
      obs_(&obs::global()),
      table_hit_counter_(&obs_->metrics.counter("switch.table_hits")),
      table_miss_counter_(&obs_->metrics.counter("switch.table_misses")),
      reroute_counter_(&obs_->metrics.counter("failover.reroute")),
      static_hit_counter_(&obs_->metrics.counter("resilience.static_hit")) {}

bool OpenFlowSwitch::port_blocked(device::PortIndex port) const noexcept {
  return port < blocked_.size() && blocked_[port];
}

void OpenFlowSwitch::set_port_live(device::PortIndex port, bool live) {
  if (port == device::kNoPort) return;
  if (port_dead_.size() <= port) port_dead_.resize(port + 1, false);
  port_dead_[port] = !live;
  obs::Tracer& tracer = obs_->tracer;
  if (tracer.enabled()) {
    tracer.emit(simulator().now().ns(),
                live ? obs::TraceEvent::kFailoverPortLive
                     : obs::TraceEvent::kFailoverPortDead,
                0, trace_name_.get(name()), static_cast<std::int32_t>(port),
                0);
  }
}

bool OpenFlowSwitch::port_live(device::PortIndex port) const noexcept {
  return !(port < port_dead_.size() && port_dead_[port]);
}

void OpenFlowSwitch::handle_packet(device::PortIndex in_port,
                                   net::Packet packet) {
  if (tap_) tap_(in_port, packet);
  if (port_blocked(in_port)) {
    ++stats_.dropped_blocked_port;
    return;
  }
  ++stats_.rx_packets;
  if (port_rx_.size() <= in_port) port_rx_.resize(in_port + 1, 0);
  ++port_rx_[in_port];

  // The pipeline latency models the ASIC/softswitch ingress-to-egress
  // delay; lookups themselves are "free" afterwards.
  simulator().schedule_after(
      profile_.processing_delay,
      [this, in_port, p = std::move(packet)]() mutable {
        pipeline(in_port, std::move(p));
      });
}

void OpenFlowSwitch::pipeline(device::PortIndex in_port, net::Packet packet) {
  if (interceptor_ != nullptr &&
      interceptor_->intercept(*this, in_port, packet)) {
    return;  // adversary swallowed the packet
  }
  const auto parsed = net::parse_packet(packet);
  if (!parsed) return;  // unparseable runt: drop silently
  const Match key = Match::exact_from(*parsed, in_port);
  const FlowSpec* rule = guarded_lookup(key, packet);
  if (rule == nullptr) {
    ++stats_.table_misses;
    table_miss_counter_->inc();
    punt_to_controller(in_port, std::move(packet));
    return;
  }
  table_hit_counter_->inc();
  apply_actions(in_port, rule->actions, std::move(packet));
}

const FlowSpec* OpenFlowSwitch::guarded_lookup(const Match& key,
                                               const net::Packet& packet) {
  bool rerouted = false;
  const FlowSpec* rule = table_.lookup(
      key, port_dead_.empty() ? nullptr : &port_dead_, &rerouted);
  if (rule != nullptr && rerouted) {
    ++stats_.failover_reroutes;
    reroute_counter_->inc();
    obs::Tracer& tracer = obs_->tracer;
    if (tracer.enabled()) {
      tracer.emit(simulator().now().ns(), obs::TraceEvent::kFailoverReroute,
                  packet.content_hash(), trace_name_.get(name()),
                  static_cast<std::int32_t>(rule->priority),
                  static_cast<std::uint32_t>(packet.size()));
    }
  }
  if (rule != nullptr && rule->cookie == kFailoverCookie) {
    ++stats_.static_backup_hits;
    static_hit_counter_->inc();
  }
  return rule;
}

void OpenFlowSwitch::apply_actions(device::PortIndex in_port,
                                   const ActionList& actions,
                                   net::Packet packet) {
  // OF 1.0: actions run in order; each Output emits the packet in its
  // current (possibly rewritten) state. An empty list drops.
  for (const auto& action : actions) {
    if (const auto* out = std::get_if<OutputAction>(&action)) {
      switch (static_cast<VirtualPort>(out->port)) {
        case VirtualPort::kFlood: {
          for (device::PortIndex p = 0;
               p < static_cast<device::PortIndex>(port_count()); ++p) {
            if (p == in_port || port_blocked(p)) continue;
            count_tx(packet, p);
            send(p, packet);
          }
          break;
        }
        case VirtualPort::kController:
          punt_to_controller(in_port, packet);
          break;
        case VirtualPort::kInPort:
          raw_output(in_port, packet);
          break;
        case VirtualPort::kTable:
          // Packet-out OFPP_TABLE: run the packet through the flow table.
          // The interceptor is NOT re-run (it models the physical ingress
          // path); trusted components rely on this for released packets.
          {
            const auto parsed = net::parse_packet(packet);
            if (parsed) {
              const Match key = Match::exact_from(*parsed, in_port);
              const FlowSpec* rule = guarded_lookup(key, packet);
              if (rule != nullptr) {
                apply_actions(in_port, rule->actions, packet);
              } else {
                ++stats_.dropped_no_rule;
              }
            }
          }
          break;
        default:
          raw_output(static_cast<device::PortIndex>(out->port), packet);
          break;
      }
    } else {
      apply_header_action(action, packet);
    }
  }
}

void OpenFlowSwitch::raw_output(device::PortIndex port, net::Packet packet) {
  if (port >= port_count()) {
    NETCO_LOG_WARN(name(), "output to nonexistent port {}", port);
    return;
  }
  if (port_blocked(port)) {
    ++stats_.dropped_blocked_port;
    return;
  }
  count_tx(packet, port);
  send(port, std::move(packet));
}

void OpenFlowSwitch::count_tx(const net::Packet& packet,
                              device::PortIndex port) {
  ++stats_.tx_packets;
  stats_.tx_bytes += packet.size();
  if (port_tx_.size() <= port) port_tx_.resize(port + 1, 0);
  ++port_tx_[port];
  obs::Tracer& tracer = obs_->tracer;
  if (tracer.enabled()) {
    // Every egress of an (untrusted) switch is a lifecycle hop: the record
    // places the packet id at this switch at this instant, which is what
    // makes compare verdicts attributable to a concrete forwarding path.
    // The id is the memoized content hash — computed at the hub ingress
    // (or the first hop that asked) and shared by every COW copy, so a
    // packet crossing h switches is hashed once, not h times.
    tracer.emit(simulator().now().ns(), obs::TraceEvent::kReplicaForward,
                packet.content_hash(), trace_name_.get(name()),
                static_cast<std::int32_t>(port),
                static_cast<std::uint32_t>(packet.size()));
  }
}

void OpenFlowSwitch::punt_to_controller(device::PortIndex in_port,
                                        net::Packet packet) {
  if (control_ == nullptr) {
    ++stats_.dropped_no_rule;
    return;
  }
  ++stats_.packet_ins_sent;
  control_->packet_in(PacketIn{.in_port = in_port, .packet = std::move(packet)});
}

void OpenFlowSwitch::receive_packet_out(PacketOut out) {
  apply_actions(out.in_port, out.actions, std::move(out.packet));
}

void OpenFlowSwitch::receive_port_mod(const PortMod& mod) {
  if (mod.port == device::kNoPort) return;
  if (blocked_.size() <= mod.port) blocked_.resize(mod.port + 1, false);
  blocked_[mod.port] = mod.blocked;
}

}  // namespace netco::openflow
