// CompareMiddlebox: the compare element as an *inband* data-plane
// middlebox / virtualized network function (paper §IV and §IX: "the
// compare could also be implemented inband, e.g., as a middlebox, or in
// the context of Network Function Virtualization").
//
// Unlike the out-of-band CompareService (packet-in/packet-out via a
// controller channel), the middlebox sits directly on the wire: ports
// 0..k-1 receive the replicas' copies, the single egress port k emits the
// released packets. One direction per middlebox; bidirectional topologies
// deploy one per direction (see topo/inband.h). The saving is the
// controller round trip — the ablation bench quantifies it.
#pragma once

#include <cstdint>
#include <deque>

#include "device/node.h"
#include "netco/compare_core.h"

namespace netco::core {

/// Middlebox deployment configuration.
struct MiddleboxConfig {
  CompareConfig compare;
  /// Fixed per-packet processing cost; the per-byte cost and the service
  /// jitter are the "C program" compare's — it is the same code on the
  /// same CPU.
  sim::Duration per_packet = sim::Duration::microseconds(12);
  /// Ingress queue capacity in packets (tail drop).
  std::size_t queue_limit = 384;
};

/// Middlebox counters (beyond the embedded CompareCore's).
struct MiddleboxStats {
  std::uint64_t received = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t released = 0;
};

/// The inband compare node. Wire ports 0..k-1 to the replica outputs and
/// port k toward the destination side.
class CompareMiddlebox : public device::Node {
 public:
  CompareMiddlebox(sim::Simulator& simulator, std::string name,
                   MiddleboxConfig config);

  void handle_packet(device::PortIndex in_port, net::Packet packet) override;

  /// The embedded compare logic (stats/advice).
  [[nodiscard]] const CompareCore& core() const noexcept { return core_; }

  /// Node-level counters.
  [[nodiscard]] const MiddleboxStats& middlebox_stats() const noexcept {
    return stats_;
  }

 private:
  void service_next();
  void schedule_sweep();
  [[nodiscard]] device::PortIndex egress_port() const noexcept {
    return static_cast<device::PortIndex>(config_.compare.k);
  }

  MiddleboxConfig config_;
  CompareCore core_;
  MiddleboxStats stats_;
  std::deque<std::pair<device::PortIndex, net::Packet>> queue_;
  bool busy_ = false;
  bool sweep_scheduled_ = false;
};

}  // namespace netco::core
