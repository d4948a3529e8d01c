#include "netco/compare_service.h"

#include <utility>

#include "common/assert.h"
#include "openflow/switch.h"

namespace netco::core {

void CompareService::configure_edge(const std::string& switch_name,
                                    EdgeConfig config) {
  const auto [it, inserted] =
      edges_.emplace(switch_name, EdgeState(std::move(config)));
  if (inserted) {
    // Disambiguates trace records when several edges share one process.
    it->second.core.set_trace_label("compare/" + switch_name);
  }
}

void CompareService::on_attached(controller::Controller& controller,
                                 openflow::ControlChannel& channel) {
  const auto it = edges_.find(channel.attached_switch().name());
  if (it == edges_.end()) return;  // not one of ours
  it->second.channel = &channel;
  schedule_sweep(controller, it->second);
}

void CompareService::schedule_sweep(controller::Controller& controller,
                                    EdgeState& state) {
  // Periodic minority-packet eviction, at twice the hold-timeout rate.
  const sim::Duration period = state.config.compare.hold_timeout / 2;
  controller.simulator().schedule_after(period, [this, &controller, &state] {
    // A dead or wedged process runs no sweeps; entries simply age until
    // the process is live again (hang) or restored (crash).
    if (state_ == ProcessState::kLive) {
      state.core.sweep(controller.simulator().now());
      act_on_advice(controller, state);
    }
    schedule_sweep(controller, state);
  });
}

void CompareService::on_packet_in(controller::Controller& controller,
                                  openflow::ControlChannel& channel,
                                  openflow::PacketIn event) {
  if (state_ != ProcessState::kLive) {
    // Crashed / hung / fenced process: the packet-in is lost. This is the
    // gap the resilience layer (checkpoints, standby, degraded policies)
    // exists to bound.
    ++downtime_drops_;
    return;
  }
  const auto it = edges_.find(channel.attached_switch().name());
  if (it == edges_.end()) return;
  EdgeState& state = it->second;

  int replica = -1;
  if (!state.config.replica_vlans.empty()) {
    // Virtualized mode: tunnel tag identifies the path, then comes off so
    // the k copies compare equal.
    const auto parsed = net::parse_packet(event.packet);
    if (parsed && parsed->vlan) {
      const auto it_vlan = state.config.replica_vlans.find(parsed->vlan->vid);
      if (it_vlan != state.config.replica_vlans.end()) {
        replica = it_vlan->second;
        net::strip_vlan(event.packet);
      }
    }
  } else {
    const auto port_it = state.config.replica_ports.find(event.in_port);
    if (port_it != state.config.replica_ports.end()) {
      replica = port_it->second;
    }
  }
  if (replica < 0) {
    ++unknown_port_drops_;
    return;
  }

  auto released = state.core.ingest(replica, std::move(event.packet),
                                    controller.simulator().now());

  // Bill any capacity-cleanup pass to the compare CPU: this stall is the
  // §V-B jitter mechanism (small packets fill the cache faster).
  if (state.core.last_cleanup_work() > 0) {
    controller.charge_extra(kCleanupCostPerEntry *
                            static_cast<std::int64_t>(
                                state.core.last_cleanup_work()));
  }

  if (released && !state.config.verify_only) {
    // One copy goes back to the edge switch and is forwarded according to
    // its MAC table (packet-out OFPP_TABLE; in_port is "controller").
    channel.packet_out(openflow::PacketOut{
        .actions = {openflow::OutputAction::table()},
        .packet = std::move(*released),
        .in_port = device::kNoPort});
  }
  act_on_advice(controller, state);
}

void CompareService::act_on_advice(controller::Controller& controller,
                                   EdgeState& state) {
  // Check the channel before consuming the advice: a detached edge keeps
  // its advice pending until (if ever) a channel re-attaches, instead of
  // silently swallowing it.
  if (state.channel == nullptr) return;
  CompareAdvice advice = state.core.take_advice();
  const std::string edge = state.channel->attached_switch().name();

  for (int replica : advice.block_replicas) {
    // Reverse-map replica index → edge port.
    for (const auto& [port, idx] : state.config.replica_ports) {
      if (idx != replica) continue;
      state.channel->port_mod(openflow::PortMod{.port = port, .blocked = true});
      if (state.config.block_duration > sim::Duration::zero()) {
        controller.simulator().schedule_after(
            state.config.block_duration, [&state, port] {
              // The edge may have detached (switch crash, teardown) while
              // the unblock timer was pending — state outlives the channel.
              if (state.channel == nullptr) return;
              state.channel->port_mod(
                  openflow::PortMod{.port = port, .blocked = false});
            });
      }
    }
    alarms_.push_back(CompareAlarm{.edge = edge,
                                   .replica = replica,
                                   .kind = CompareAlarm::Kind::kPortBlocked,
                                   .at = controller.simulator().now()});
  }
  for (int replica : advice.inactive_replicas) {
    alarms_.push_back(CompareAlarm{.edge = edge,
                                   .replica = replica,
                                   .kind = CompareAlarm::Kind::kReplicaInactive,
                                   .at = controller.simulator().now()});
  }
}

const CompareStats* CompareService::stats_for(
    const std::string& edge_name) const {
  const auto it = edges_.find(edge_name);
  return it == edges_.end() ? nullptr : &it->second.core.stats();
}

CompareCore* CompareService::core_for(const std::string& edge_name) {
  const auto it = edges_.find(edge_name);
  return it == edges_.end() ? nullptr : &it->second.core;
}

void CompareService::detach_edge(const std::string& edge_name) {
  const auto it = edges_.find(edge_name);
  if (it != edges_.end()) it->second.channel = nullptr;
}

}  // namespace netco::core
