#include "controller/controller.h"

#include <algorithm>
#include <utility>

namespace netco::controller {

CostProfile CostProfile::c_program() {
  // A compiled compare process on a direct Ethernet socket (the paper's
  // h3). 16 µs per packet ≈ 245 Mb/s of released 1470-byte datagrams at
  // k = 3 — the Central3 operating point of Table I.
  return CostProfile{.name = "c",
                     .per_packet_in = sim::Duration::microseconds(12),
                     .per_byte_ns = 3.65,
                     .channel_latency = sim::Duration::microseconds(10),
                     .channel_jitter = sim::Duration::microseconds(25),
                     .max_queue = 384};
}

CostProfile CostProfile::pox() {
  // Interpreted Python handler plus the full controller pipe: the paper
  // attributes POX3's collapse to exactly these two costs.
  return CostProfile{.name = "pox",
                     .per_packet_in = sim::Duration::microseconds(50),
                     .per_byte_ns = 6.6,
                     .channel_latency = sim::Duration::microseconds(100),
                     .channel_jitter = sim::Duration::microseconds(80),
                     .max_queue = 256};
}

Controller::Controller(sim::Simulator& simulator, std::string name, App& app,
                       CostProfile profile)
    : simulator_(simulator),
      name_(std::move(name)),
      app_(app),
      profile_(std::move(profile)) {}

openflow::ControlChannel& Controller::attach(openflow::OpenFlowSwitch& sw) {
  channels_.push_back(std::make_unique<openflow::ControlChannel>(
      simulator_, sw, *this, profile_.channel_latency,
      profile_.channel_jitter));
  openflow::ControlChannel& channel = *channels_.back();
  app_.on_attached(*this, channel);
  return channel;
}

void Controller::on_packet_in(openflow::ControlChannel& channel,
                              openflow::PacketIn event) {
  ++stats_.packet_ins_received;
  // Plain tail drop. No burst correlation is needed here: the quorum
  // arithmetic amplifies uncorrelated copy loss by itself (a packet dies
  // when any 2 of its 3 copies die, so P(fail) ≈ 3p² produces the sharp
  // loss cliff the paper's -b search runs into at the compare's capacity).
  if (queue_.size() >= profile_.max_queue) {
    ++stats_.packet_ins_dropped;
    return;
  }
  queue_.push_back(Pending{&channel, std::move(event)});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  if (!busy_) drain();
}

void Controller::drain() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  // Service the head-of-line message after the per-message CPU cost (plus
  // any debt an app billed via charge_extra); one CPU, strict FIFO.
  sim::Duration cost =
      profile_.per_packet_in + extra_debt_ +
      sim::Duration::nanoseconds(static_cast<std::int64_t>(
          profile_.per_byte_ns *
          static_cast<double>(queue_.front().event.packet.size())));
  if (profile_.service_jitter > 0.0) {
    const double factor = simulator_.rng().uniform(
        1.0 - profile_.service_jitter, 1.0 + profile_.service_jitter);
    cost = sim::Duration::nanoseconds(
        static_cast<std::int64_t>(static_cast<double>(cost.ns()) * factor));
  }
  extra_debt_ = sim::Duration::zero();
  simulator_.schedule_after(cost, [this] {
    Pending item = std::move(queue_.front());
    queue_.pop_front();
    app_.on_packet_in(*this, *item.channel, std::move(item.event));
    drain();
  });
}

}  // namespace netco::controller
