#include "openflow/channel.h"

#include <utility>

#include "openflow/switch.h"

namespace netco::openflow {

ControlChannel::ControlChannel(sim::Simulator& simulator, OpenFlowSwitch& sw,
                               ControllerEndpoint& endpoint,
                               sim::Duration one_way_latency,
                               sim::Duration latency_jitter)
    : simulator_(simulator),
      switch_(sw),
      endpoint_(endpoint),
      latency_(one_way_latency),
      latency_jitter_(latency_jitter) {
  switch_.bind_control(this);
}

sim::Duration ControlChannel::jittered_latency() noexcept {
  if (latency_jitter_ <= sim::Duration::zero()) return latency_;
  return latency_ + sim::Duration::nanoseconds(static_cast<std::int64_t>(
                        simulator_.rng().uniform(
                            0.0, static_cast<double>(latency_jitter_.ns()))));
}

void ControlChannel::packet_in(PacketIn event) {
  simulator_.schedule_after(jittered_latency(),
                            [this, e = std::move(event)]() mutable {
                              endpoint_.on_packet_in(*this, std::move(e));
                            });
}

void ControlChannel::packet_out(PacketOut out) {
  simulator_.schedule_after(jittered_latency(),
                            [this, o = std::move(out)]() mutable {
                              switch_.receive_packet_out(std::move(o));
                            });
}

void ControlChannel::port_mod(PortMod mod) {
  simulator_.schedule_after(jittered_latency(),
                            [this, mod] { switch_.receive_port_mod(mod); });
}

}  // namespace netco::openflow
