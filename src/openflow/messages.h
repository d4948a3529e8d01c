// OpenFlow 1.0 control messages: the packet-in and packet-out the compare
// runs on, plus the port-mod that carries its DoS block advice. Rules are
// installed straight into the switch's table (openflow/flow_table.h).
#pragma once

#include "device/node.h"
#include "net/packet.h"
#include "openflow/action.h"

namespace netco::openflow {

/// Switch → controller: a packet that missed the flow table (or was
/// explicitly punted via output(CONTROLLER)). Carries the full frame;
/// buffer ids are not modelled.
struct PacketIn {
  device::PortIndex in_port = device::kNoPort;
  net::Packet packet;
};

/// Controller → switch: emit `packet` through `actions`.
/// `in_port` provides the ingress context for FLOOD/IN_PORT resolution.
struct PacketOut {
  ActionList actions;
  net::Packet packet;
  device::PortIndex in_port = device::kNoPort;
};

/// Controller → switch: administratively block/unblock a port
/// (OFPPC_PORT_DOWN in spirit). Blocked ports neither receive nor transmit.
struct PortMod {
  device::PortIndex port = device::kNoPort;
  bool blocked = false;
};

}  // namespace netco::openflow
