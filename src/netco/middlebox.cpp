#include "netco/middlebox.h"

#include <utility>

#include "common/assert.h"

namespace netco::core {

namespace {

/// Per-byte processing cost and relative service-time jitter, as in
/// controller::CostProfile::c_program().
constexpr double kPerByteNs = 3.65;
constexpr double kServiceJitter = 0.3;

}  // namespace

CompareMiddlebox::CompareMiddlebox(sim::Simulator& simulator, std::string name,
                                   MiddleboxConfig config)
    : Node(simulator, std::move(name)),
      config_(config),
      core_(config.compare) {
  schedule_sweep();
}

void CompareMiddlebox::schedule_sweep() {
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  simulator().schedule_after(config_.compare.hold_timeout / 2, [this] {
    sweep_scheduled_ = false;
    core_.sweep(simulator().now());
    schedule_sweep();
  });
}

void CompareMiddlebox::handle_packet(device::PortIndex in_port,
                                     net::Packet packet) {
  if (in_port >= static_cast<device::PortIndex>(config_.compare.k)) {
    return;  // nothing arrives on the egress side in this direction
  }
  ++stats_.received;
  if (queue_.size() >= config_.queue_limit) {
    ++stats_.dropped_queue;
    return;
  }
  queue_.emplace_back(in_port, std::move(packet));
  if (!busy_) service_next();
}

void CompareMiddlebox::service_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const auto& [port, packet] = queue_.front();
  double cost_ns = static_cast<double>(config_.per_packet.ns()) +
                   kPerByteNs * static_cast<double>(packet.size());
  cost_ns *= simulator().rng().uniform(1.0 - kServiceJitter,
                                       1.0 + kServiceJitter);
  simulator().schedule_after(
      sim::Duration::nanoseconds(static_cast<std::int64_t>(cost_ns)), [this] {
        auto [in_port, p] = std::move(queue_.front());
        queue_.pop_front();
        auto released =
            core_.ingest(static_cast<int>(in_port), std::move(p),
                         simulator().now());
        if (core_.last_cleanup_work() > 0) {
          // Model the cleanup stall by keeping the server busy longer.
          const auto stall =
              kCleanupCostPerEntry *
              static_cast<std::int64_t>(core_.last_cleanup_work());
          simulator().schedule_after(stall, [this] { service_next(); });
          if (released) {
            ++stats_.released;
            send(egress_port(), std::move(*released));
          }
          return;
        }
        if (released) {
          ++stats_.released;
          send(egress_port(), std::move(*released));
        }
        service_next();
      });
}

}  // namespace netco::core
