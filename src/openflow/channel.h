// The switch ↔ controller control channel.
//
// Models the out-of-band TCP connection of a real deployment as a fixed
// one-way latency in each direction. Controller CPU costs are modelled by
// the controller framework (see controller/controller.h), not here.
#pragma once

#include "openflow/messages.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace netco::openflow {

class OpenFlowSwitch;
class ControlChannel;

/// Receives switch events; implemented by the controller framework.
class ControllerEndpoint {
 public:
  virtual ~ControllerEndpoint() = default;

  /// A packet-in arrived from `channel`'s switch.
  virtual void on_packet_in(ControlChannel& channel, PacketIn event) = 0;
};

/// One switch's control connection.
class ControlChannel {
 public:
  /// Wires `sw` to `endpoint` with the given one-way latency and registers
  /// itself on the switch. `latency_jitter` adds U(0, jitter) per message
  /// — kernel/NIC scheduling noise that de-bunches the k near-simultaneous
  /// copies of each packet (a real wire never delivers them lockstep).
  ControlChannel(sim::Simulator& simulator, OpenFlowSwitch& sw,
                 ControllerEndpoint& endpoint, sim::Duration one_way_latency,
                 sim::Duration latency_jitter = sim::Duration::zero());

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  // --- switch → controller ----------------------------------------------
  /// Ships a packet-in; the endpoint sees it after the channel latency.
  void packet_in(PacketIn event);

  // --- controller → switch ----------------------------------------------
  /// Ships a packet-out.
  void packet_out(PacketOut out);
  /// Ships a port-mod.
  void port_mod(PortMod mod);

  /// The switch this channel controls.
  [[nodiscard]] OpenFlowSwitch& attached_switch() noexcept { return switch_; }

 private:
  [[nodiscard]] sim::Duration jittered_latency() noexcept;

  sim::Simulator& simulator_;
  OpenFlowSwitch& switch_;
  ControllerEndpoint& endpoint_;
  sim::Duration latency_;
  sim::Duration latency_jitter_;
};

}  // namespace netco::openflow
