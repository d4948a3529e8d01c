// Sampling-based detection (paper §IX): "An efficient alternative could
// be to reduce load on the compare using sampling: a simple logic in the
// data plane forwards a random subset of packets to a more thorough
// out-of-band compare logic."
//
// Deployment (build_combiner with EdgeMode::kDetect): the trusted edge
// forwards the *primary* replica's (replica 0's) output downstream
// immediately (no holding — this is detection, not prevention), and for a
// content-sampled subset of packets it punts every replica's copy to the
// out-of-band compare, which verifies agreement and raises mismatch
// alarms. Sampling is deterministic on packet content so the k copies of
// one packet are always sampled consistently.
#pragma once

#include <unordered_map>
#include <vector>

#include "device/datapath.h"
#include "net/address.h"
#include "net/packet.h"

namespace netco::core {

/// The trusted edge's sampling logic, installed as the edge switch's
/// datapath hook (the edge is trusted; its hook is policy, not attack).
class SamplingEdgeLogic : public device::DatapathInterceptor {
 public:
  struct Config {
    /// Edge ingress port → replica index; replica 0 is forwarded.
    std::unordered_map<device::PortIndex, int> replica_ports;
    /// This edge's own-side MACs: replica copies sourcing one of these
    /// are spoofs and must reach the table's kScreenPriority drop rule.
    std::vector<net::MacAddress> local_macs;
    /// Port toward this edge's neighbor (downstream).
    device::PortIndex neighbor_port = 0;
    /// Fraction of packets escalated to the compare, in [0, 1].
    double sample_rate = 0.05;
  };

  explicit SamplingEdgeLogic(Config config) : config_(std::move(config)) {}

  bool intercept(device::Datapath& datapath, device::PortIndex in_port,
                 net::Packet& packet) override;

  /// The deterministic content-based sampling decision (exposed for
  /// tests: all copies of one packet share it).
  [[nodiscard]] bool is_sampled(const net::Packet& packet) const noexcept;

 private:
  Config config_;
};

}  // namespace netco::core
