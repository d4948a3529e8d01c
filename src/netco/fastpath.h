// FastPathTap: the trusted edge's sampled-verification hook (§XII).
//
// Installed as the edge switch's datapath interceptor, it short-circuits
// the compare's packet-in round trip for replica traffic: each copy is
// offered to CompareCore::ingest_sampled(), which either releases it on
// the spot (fast path — the copy that completes a healthy-weighted vote
// goes straight out the edge's own flow table, exactly like a packet-out
// OFPP_TABLE would), swallows it (a vote that did not release, a
// duplicate, a late copy), or *escalates* it — 1-in-N packets elected for
// the full k-way compare take the classic punt to the out-of-band
// compare process, bit-for-bit the pre-§XII path.
//
// The tap preserves the edge's rule semantics: non-replica ports fall
// through untouched, and a replica copy carrying one of this edge's own
// source MACs falls through to the flow table where the kScreenPriority
// anti-spoof screen drops it (the tap must not become a spoof bypass).
#pragma once

#include <unordered_map>
#include <vector>

#include "device/datapath.h"
#include "net/address.h"
#include "netco/compare_core.h"
#include "openflow/switch.h"

namespace netco::core {

/// The sampled-verification fast path of one trusted edge.
class FastPathTap : public device::DatapathInterceptor {
 public:
  struct Config {
    /// Edge ingress port → replica index (same map the compare uses).
    std::unordered_map<device::PortIndex, int> replica_ports;
    /// This edge's own-side MACs: replica copies sourcing one of these
    /// are spoofs and must reach the table's kScreenPriority drop rule.
    std::vector<net::MacAddress> local_macs;
  };

  /// `core` is the edge's compare core (owned by the CompareService that
  /// outlives the switch's interceptor registration); `edge` is the switch
  /// the tap will be installed on — pinned here so the per-copy hot path
  /// never pays a dynamic_cast.
  FastPathTap(Config config, CompareCore* core, openflow::OpenFlowSwitch* edge)
      : config_(std::move(config)), core_(core), edge_(edge) {
    // Flatten the port → replica map into a dense lookup: ports are small
    // dense indices and this runs once per copy of every packet.
    for (const auto& [port, replica] : config_.replica_ports) {
      const auto idx = static_cast<std::size_t>(port);
      if (idx >= port_to_replica_.size()) {
        port_to_replica_.resize(idx + 1, -1);
      }
      port_to_replica_[idx] = replica;
    }
  }

  bool intercept(device::Datapath& datapath, device::PortIndex in_port,
                 net::Packet& packet) override;

 private:
  Config config_;
  CompareCore* core_;
  openflow::OpenFlowSwitch* edge_;
  std::vector<int> port_to_replica_;  ///< dense replica_ports (-1 = none)
};

/// Whether a replica copy carries one of this edge's own-side MACs as its
/// source — a spoof. Edge hooks let such a copy fall through to the flow
/// table, whose kScreenPriority rule drops it.
[[nodiscard]] bool spoofs_local_source(
    const net::Packet& packet,
    const std::vector<net::MacAddress>& local_macs) noexcept;

}  // namespace netco::core
