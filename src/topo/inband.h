// Inband-combiner topology: the Fig. 3 reference network with the compare
// realized as data-plane middleboxes (one per direction) instead of an
// out-of-band controller process — the alternative architecture of §IX.
//
//                 ┌── r0 ──┐
//   h1 ── eA ── ··· rj ··· ──▶ mbAB ──▶ eB ── h2      (direction h1→h2)
//                 └── rk ──┘
//   (and symmetrically eB → replicas → mbBA → eA for h2→h1)
//
// The replicas are the same untrusted switches as in the Central
// scenarios; eA/eB are trusted hubs + MAC forwarders; the middleboxes are
// trusted compare elements on the wire. Malicious replica traffic aimed
// directly at a trusted edge is dropped there (the edges accept data only
// from their host and their middlebox).
#pragma once

#include <vector>

#include "device/network.h"
#include "host/host.h"
#include "netco/combiner.h"
#include "netco/middlebox.h"

namespace netco::topo {

/// The instantiated inband-combiner network: k = 3 replicas, default
/// links, hosts and middleboxes, seed 1.
class InbandCombinerTopology {
 public:
  InbandCombinerTopology();

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] device::Network& network() noexcept { return network_; }
  [[nodiscard]] host::Host& h1() noexcept { return *h1_; }
  [[nodiscard]] host::Host& h2() noexcept { return *h2_; }
  [[nodiscard]] openflow::OpenFlowSwitch& replica(int j) {
    return *replicas_.at(static_cast<std::size_t>(j));
  }
  /// Middlebox for the h1→h2 direction.
  [[nodiscard]] core::CompareMiddlebox& mb_forward() noexcept { return *mb_ab_; }
  /// Middlebox for the h2→h1 direction.
  [[nodiscard]] core::CompareMiddlebox& mb_reverse() noexcept { return *mb_ba_; }

 private:
  void build();

  sim::Simulator simulator_;
  device::Network network_;
  host::Host* h1_ = nullptr;
  host::Host* h2_ = nullptr;
  openflow::OpenFlowSwitch* ea_ = nullptr;
  openflow::OpenFlowSwitch* eb_ = nullptr;
  std::vector<openflow::OpenFlowSwitch*> replicas_;
  core::CompareMiddlebox* mb_ab_ = nullptr;
  core::CompareMiddlebox* mb_ba_ = nullptr;
};

}  // namespace netco::topo
