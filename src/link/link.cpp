#include "link/link.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "sim/shard.h"

namespace netco::link {

void Channel::bind_remote(sim::ShardChannel& channel, DeliverFn remote_sink) {
  NETCO_ASSERT_MSG(sink_ == nullptr,
                   "bind_remote on a channel that already has a local sink");
  NETCO_ASSERT(static_cast<bool>(remote_sink));
  NETCO_ASSERT_MSG(
      channel.lookahead() <= config_.propagation,
      "link propagation must cover the shard channel's lookahead — "
      "otherwise a delivery could undercut the conservative horizon");
  remote_ = &channel;
  remote_sink_ = std::move(remote_sink);
}

void Channel::send(net::Packet packet) {
  NETCO_ASSERT_MSG(sink_ != nullptr || remote_ != nullptr,
                   "channel used before bind_sink()/bind_remote()");
  if (down_) {
    ++stats_.dropped_down;
    return;
  }
  if (loss_rate_ > 0.0 && simulator_.rng().chance(loss_rate_)) {
    ++stats_.dropped_loss;
    obs::Tracer& tracer = obs_->tracer;
    if (tracer.enabled()) {
      // packet_id is the memoized content hash (shared across COW copies);
      // a loss/drop record therefore never re-hashes the payload.
      tracer.emit(simulator_.now().ns(), obs::TraceEvent::kLinkLoss,
                  packet.content_hash(), trace_name_.get(label_), -1,
                  static_cast<std::uint32_t>(packet.size()));
    }
    return;
  }
  if (!busy_) {
    busy_ = true;
    start_transmission(std::move(packet));
    return;
  }
  if (queued_bytes_ + packet.size() > config_.queue_bytes) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += packet.size();
    drop_counter_->inc();
    obs::Tracer& tracer = obs_->tracer;
    if (tracer.enabled()) {
      tracer.emit(simulator_.now().ns(), obs::TraceEvent::kLinkDrop,
                  packet.content_hash(), trace_name_.get(label_), -1,
                  static_cast<std::uint32_t>(packet.size()));
    }
    return;
  }
  queued_bytes_ += packet.size();
  stats_.max_queue_bytes =
      std::max<std::uint64_t>(stats_.max_queue_bytes, queued_bytes_);
  queue_depth_->observe(static_cast<double>(queued_bytes_));
  queue_.push_back(std::move(packet));
}

void Channel::start_transmission(net::Packet packet) {
  const sim::Duration tx = sim::transmission_time(config_.rate, packet.size());
  ++stats_.tx_packets;
  stats_.tx_bytes += packet.size();
  const sim::Duration arrival = tx + config_.propagation + extra_latency_;
  // Deliver after serialization + propagation...
  if (remote_ != nullptr) {
    // ...on the peer shard: the delivery callback is drained at the next
    // barrier and runs in the receiving cell's simulator. remote_sink_ is
    // written once at wiring time, so the cross-thread read is benign.
    remote_->post(simulator_.now(), simulator_.now() + arrival,
                  sim::Callback([this, p = std::move(packet)]() mutable {
                    remote_sink_(std::move(p));
                  }));
  } else {
    simulator_.schedule_after(arrival, [this, p = std::move(packet)]() mutable {
      sink_(std::move(p));
    });
  }
  // ...and free the transmitter after serialization only.
  simulator_.schedule_after(tx, [this] { on_transmit_done(); });
}

void Channel::on_transmit_done() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  net::Packet next = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= next.size();
  start_transmission(std::move(next));
}

}  // namespace netco::link
