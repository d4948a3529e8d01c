#include "netco/hub.h"

#include <utility>

#include "netco/combiner.h"

namespace netco::core {

Hub::Hub(sim::Simulator& simulator, std::string name,
         sim::Duration processing_delay)
    : device::Node(simulator, std::move(name)),
      delay_(processing_delay),
      obs_(&obs::global()),
      split_counter_(&obs_->metrics.counter("hub." + this->name() + ".split")),
      merge_counter_(&obs_->metrics.counter("hub." + this->name() + ".merge")),
      split_total_(&obs_->metrics.counter("hub.split")),
      merge_total_(&obs_->metrics.counter("hub.merge")),
      fanout_counter_(&obs_->metrics.counter("hub.copies_out")) {}

void Hub::set_port_masked(device::PortIndex port, bool masked) {
  if (port == 0) return;  // upstream side; masking it would black-hole
  if (masked_.size() <= port) masked_.resize(port + 1, false);
  masked_[port] = masked;
}

bool Hub::port_masked(device::PortIndex port) const noexcept {
  return port < masked_.size() && masked_[port];
}

void Hub::handle_packet(device::PortIndex in_port, net::Packet packet) {
  simulator().schedule_after(delay_, [this, in_port,
                                      p = std::move(packet)]() mutable {
    obs::Tracer& tracer = obs_->tracer;
    if (in_port == 0) {
      split_counter_->inc();
      split_total_->inc();
      // 1-based split sequence straight from the registry counter; every
      // probe_stride_-th split opens the trickle to masked ports.
      const bool probe_round =
          probe_stride_ != 0 && split_counter_->value() % probe_stride_ == 0;
      if (tracer.enabled()) {
        // content_hash() memoizes into the shared payload buffer, so this
        // one computation is the id every downstream copy (replica
        // forwards, compare ingests) reuses for free.
        tracer.emit(simulator().now().ns(), obs::TraceEvent::kHubIngress,
                    p.content_hash(), name(), -1,
                    static_cast<std::uint32_t>(p.size()));
      }
      std::uint64_t copies = 0;
      for (device::PortIndex port = 1; port < port_count(); ++port) {
        if (port_masked(port) && !probe_round) continue;
        send(port, p);  // COW fan-out: each copy is a refcount bump
        ++copies;
      }
      fanout_counter_->inc(copies);
    } else {
      merge_counter_->inc();
      merge_total_->inc();
      if (tracer.enabled()) {
        tracer.emit(simulator().now().ns(), obs::TraceEvent::kHubMerge,
                    p.content_hash(), name(),
                    static_cast<std::int32_t>(in_port) - 1,
                    static_cast<std::uint32_t>(p.size()));
      }
      send(0, std::move(p));
    }
  });
}

void install_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from,
                       const std::vector<device::PortIndex>& to) {
  openflow::FlowSpec spec;
  spec.match.with_in_port(from);
  for (device::PortIndex port : to) {
    spec.actions.push_back(openflow::OutputAction::to(port));
  }
  spec.priority = kHubPriority;
  sw.table().add(std::move(spec), sw.simulator().now());
}

void remove_hub_rules(openflow::OpenFlowSwitch& sw, device::PortIndex from) {
  openflow::Match match;
  match.with_in_port(from);
  sw.table().remove_strict(match, kHubPriority);
}

}  // namespace netco::core
