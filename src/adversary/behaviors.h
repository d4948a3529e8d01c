// Adversarial router behaviours (threat model, §II of the paper).
//
// Each behaviour is a DatapathInterceptor installed on an OpenFlowSwitch.
// The threat model places *no* restriction on a malicious datapath, so
// interceptors run before the flow table and may redirect, duplicate,
// rewrite, drop, or fabricate traffic. The four §II attack classes map to:
//
//   1. Rerouting           → RerouteBehavior
//   2. Mirroring           → MirrorBehavior
//   3. Packet modification → ModifyBehavior (+ DropBehavior for deletion,
//                            DosFlooder for generation)
//   4. Denial-of-Service   → DosFlooder (flooding) / DropBehavior (drops)
//
// Behaviours take a PacketPredicate selecting victim traffic, and a
// CompositeBehavior chains several. Attacks that switch on mid-run are
// kBehaviorSwap events in a faultinject::FaultPlan.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "device/datapath.h"
#include "net/headers.h"
#include "openflow/switch.h"
#include "sim/simulator.h"

namespace netco::adversary {

/// Selects which packets an attack applies to (ingress port + headers).
using PacketPredicate = std::function<bool(
    device::PortIndex, const net::ParsedPacket&, const net::Packet&)>;

/// Predicate matching every packet.
PacketPredicate match_all();

/// Predicate matching a destination MAC.
PacketPredicate match_dl_dst(const net::MacAddress& mac);

/// Predicate matching an IPv4 destination.
PacketPredicate match_nw_dst(net::Ipv4Address ip);

/// Restricts `inner` to packets arriving on `port` (e.g. the §VI
/// aggregation switch mirrors only traffic coming up from one edge,
/// so the mirrored copy passing through again is not re-mirrored).
PacketPredicate from_port(device::PortIndex port, PacketPredicate inner);

/// Counters shared by all behaviours.
struct AttackStats {
  std::uint64_t packets_inspected = 0;
  std::uint64_t packets_attacked = 0;
};

/// Base with predicate + stats plumbing.
class BehaviorBase : public device::DatapathInterceptor {
 public:
  explicit BehaviorBase(PacketPredicate predicate)
      : predicate_(std::move(predicate)) {}

  /// Attack counters.
  [[nodiscard]] const AttackStats& attack_stats() const noexcept {
    return stats_;
  }

 protected:
  /// True if the packet is a victim; updates counters.
  bool selects(device::PortIndex in_port, const net::ParsedPacket& parsed,
               const net::Packet& packet);

 private:
  PacketPredicate predicate_;
  AttackStats stats_;
};

/// §II-1: forwards victim packets to the wrong port instead of routing them.
class RerouteBehavior final : public BehaviorBase {
 public:
  RerouteBehavior(PacketPredicate predicate, device::PortIndex wrong_port)
      : BehaviorBase(std::move(predicate)), wrong_port_(wrong_port) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;

 private:
  device::PortIndex wrong_port_;
};

/// §II-2: duplicates victim packets to an extra port; the original still
/// follows the normal pipeline (the §VI aggregation-switch attack).
class MirrorBehavior final : public BehaviorBase {
 public:
  MirrorBehavior(PacketPredicate predicate, device::PortIndex mirror_port)
      : BehaviorBase(std::move(predicate)), mirror_port_(mirror_port) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;

 private:
  device::PortIndex mirror_port_;
};

/// §II-3: rewrites victim packets in flight (VLAN retag, MAC rewrite,
/// payload corruption — the mutation is caller-provided).
class ModifyBehavior final : public BehaviorBase {
 public:
  using Mutator = std::function<void(net::Packet&)>;

  ModifyBehavior(PacketPredicate predicate, Mutator mutator)
      : BehaviorBase(std::move(predicate)), mutator_(std::move(mutator)) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;

  /// Convenience mutators.
  static Mutator retag_vlan(std::uint16_t vid);
  static Mutator rewrite_dl_dst(const net::MacAddress& mac);
  static Mutator corrupt_payload();

 private:
  Mutator mutator_;
};

/// §II-3/4: silently deletes victim packets.
class DropBehavior final : public BehaviorBase {
 public:
  explicit DropBehavior(PacketPredicate predicate)
      : BehaviorBase(std::move(predicate)) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;
};

// --- control-plane attacks (routing lies, DESIGN §15) ------------------------
//
// These behaviours rewrite RIP-v2 announcements (routing/rip_msg.h) in
// flight — the "corrupt routing *state*, not just packets" fault class of
// Robust Routing Made Easy / Authenticated Adversarial Routing. Every
// mutation is a pure function of the wire bytes (checksums re-fixed), so
// a lying replica's copies are credible to a checksum-verifying receiver
// and two identical liars produce bit-identical lies — the k=3 quorum
// boundary made concrete.

/// Route poisoning: advertises false low metrics. Every entry metric is
/// rewritten to 0 (below the legal minimum), so the receiver computes
/// offered metric 1 for every prefix — including ones the liar's side has
/// no business attracting — and installs wrong next hops / metrics.
class RoutePoisonBehavior final : public BehaviorBase {
 public:
  explicit RoutePoisonBehavior(PacketPredicate predicate)
      : BehaviorBase(std::move(predicate)) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;
};

/// Metric inflation: every entry metric is inflated by `inflate_by`
/// (clamped to infinity), pushing traffic off the attacked path onto
/// longer detours — convergence lands on the wrong tables.
class MetricInflateBehavior final : public BehaviorBase {
 public:
  MetricInflateBehavior(PacketPredicate predicate, std::uint8_t inflate_by = 8)
      : BehaviorBase(std::move(predicate)), inflate_by_(inflate_by) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;

  /// The inflation step shared with the FaultPlan applier (must stay a
  /// pure function so identical liars emit identical bytes).
  static std::uint8_t inflate8(std::uint8_t metric);

 private:
  std::uint8_t inflate_by_;
};

/// Blackhole advertisement: the combined attack — announcements are
/// poisoned (metrics → 0) to *attract* traffic, and the attracted data
/// plane (every non-RIP IPv4 packet the predicate selects) is silently
/// dropped.
class BlackholeAdBehavior final : public BehaviorBase {
 public:
  explicit BlackholeAdBehavior(PacketPredicate predicate)
      : BehaviorBase(std::move(predicate)) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;

  /// Data packets swallowed (announcement rewrites count in attack_stats).
  [[nodiscard]] std::uint64_t data_dropped() const noexcept {
    return data_dropped_;
  }

 private:
  std::uint64_t data_dropped_ = 0;
};

/// Chains behaviours; the first one that swallows the packet wins.
class CompositeBehavior final : public device::DatapathInterceptor {
 public:
  /// Takes ownership of the chained behaviours.
  explicit CompositeBehavior(
      std::vector<std::unique_ptr<device::DatapathInterceptor>> chain)
      : chain_(std::move(chain)) {}

  bool intercept(device::Datapath& dp, device::PortIndex in_port,
                 net::Packet& packet) override;

 private:
  std::vector<std::unique_ptr<device::DatapathInterceptor>> chain_;
};

/// §II-4: a compromised switch fabricating traffic at a fixed packet rate
/// out of one of its ports (resource-exhaustion DoS). Not an interceptor —
/// it generates packets on its own clock.
class DosFlooder {
 public:
  struct Config {
    device::PortIndex out_port = 0;
    /// Fabricated packets per second.
    double packets_per_sec = 50'000;
    std::size_t packet_bytes = 1500;
    /// Forged addresses for the flood.
    net::MacAddress dst_mac;
    net::MacAddress src_mac;
  };

  DosFlooder(device::Datapath& datapath, Config config);

  /// Starts flooding until stop().
  void start();
  void stop();

  /// Packets fabricated so far.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  void tick();

  device::Datapath& datapath_;
  Config config_;
  bool running_ = false;
  std::uint64_t emitted_ = 0;
  std::uint32_t seq_ = 0;
  sim::EventHandle handle_;
};

}  // namespace netco::adversary
