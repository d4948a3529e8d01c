// Unit tests for the controller framework and the static MAC routes.
#include <gtest/gtest.h>

#include <vector>

#include "controller/controller.h"
#include "controller/static_routing.h"
#include "device/network.h"
#include "net/headers.h"
#include "openflow/switch.h"

namespace netco::controller {
namespace {

using device::Network;

net::Packet udp_packet(std::uint32_t src_id, std::uint32_t dst_id) {
  std::vector<std::byte> payload(64, std::byte{0});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(dst_id),
                          .src = net::MacAddress::from_id(src_id)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(src_id),
                      .dst = net::Ipv4Address::from_id(dst_id)},
      net::UdpHeader{.src_port = 1, .dst_port = 2}, payload);
}

class Probe : public device::Node {
 public:
  using Node::Node;
  void handle_packet(device::PortIndex port, net::Packet packet) override {
    received.push_back({port, std::move(packet)});
  }
  std::vector<std::pair<device::PortIndex, net::Packet>> received;
};

/// App that counts packet-ins and records service times.
class CountingApp : public App {
 public:
  void on_packet_in(Controller& controller, openflow::ControlChannel&,
                    openflow::PacketIn) override {
    ++count;
    times.push_back(controller.simulator().now());
  }
  int count = 0;
  std::vector<sim::TimePoint> times;
};

TEST(Controller, PacketInReachesAppAfterLatencyAndCost) {
  sim::Simulator sim;
  Network net(sim);
  auto& sw = net.add_node<openflow::OpenFlowSwitch>(
      "sw", openflow::SwitchProfile{.vendor = "t",
                                    .processing_delay = sim::Duration::zero()});
  auto& h = net.add_node<Probe>("h");
  net.connect(sw, h);

  CountingApp app;
  CostProfile profile;
  profile.per_packet_in = sim::Duration::microseconds(50);
  profile.channel_latency = sim::Duration::microseconds(100);
  profile.channel_jitter = sim::Duration::zero();
  profile.service_jitter = 0.0;
  Controller controller(sim, "ctl", app, profile);
  controller.attach(sw);

  h.send(0, udp_packet(1, 2));  // miss → packet-in
  sim.run();
  ASSERT_EQ(app.count, 1);
  // link (~1µs prop + tx) + channel 100µs + service 50µs.
  EXPECT_GE(app.times[0].ns(), sim::Duration::microseconds(150).ns());
}

TEST(Controller, MessagesServicedFifoOneAtATime) {
  sim::Simulator sim;
  Network net(sim);
  auto& sw = net.add_node<openflow::OpenFlowSwitch>(
      "sw", openflow::SwitchProfile{.vendor = "t",
                                    .processing_delay = sim::Duration::zero()});
  auto& h = net.add_node<Probe>("h");
  net.connect(sw, h);

  CountingApp app;
  CostProfile profile;
  profile.per_packet_in = sim::Duration::microseconds(100);
  profile.channel_latency = sim::Duration::zero();
  profile.channel_jitter = sim::Duration::zero();
  profile.service_jitter = 0.0;
  Controller controller(sim, "ctl", app, profile);
  controller.attach(sw);

  for (int i = 0; i < 3; ++i) h.send(0, udp_packet(1, 2));
  sim.run();
  ASSERT_EQ(app.count, 3);
  // Service completions must be >= 100 µs apart (single CPU).
  EXPECT_GE((app.times[1] - app.times[0]).ns(),
            sim::Duration::microseconds(100).ns());
  EXPECT_GE((app.times[2] - app.times[1]).ns(),
            sim::Duration::microseconds(100).ns());
}

TEST(Controller, QueueOverflowDropsAndCounts) {
  sim::Simulator sim;
  Network net(sim);
  auto& sw = net.add_node<openflow::OpenFlowSwitch>(
      "sw", openflow::SwitchProfile{.vendor = "t",
                                    .processing_delay = sim::Duration::zero()});
  auto& h = net.add_node<Probe>("h");
  net.connect(sw, h);

  CountingApp app;
  CostProfile profile;
  profile.per_packet_in = sim::Duration::seconds(1);  // glacial
  profile.channel_latency = sim::Duration::zero();
  profile.channel_jitter = sim::Duration::zero();
  profile.service_jitter = 0.0;
  profile.max_queue = 4;
  Controller controller(sim, "ctl", app, profile);
  controller.attach(sw);

  for (int i = 0; i < 10; ++i) h.send(0, udp_packet(1, 2));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::milliseconds(100));
  EXPECT_EQ(controller.stats().packet_ins_received, 10u);
  EXPECT_GT(controller.stats().packet_ins_dropped, 0u);
}

TEST(Controller, ChargeExtraDelaysNextMessage) {
  sim::Simulator sim;
  Network net(sim);
  auto& sw = net.add_node<openflow::OpenFlowSwitch>(
      "sw", openflow::SwitchProfile{.vendor = "t",
                                    .processing_delay = sim::Duration::zero()});
  auto& h = net.add_node<Probe>("h");
  net.connect(sw, h);

  struct ChargingApp : App {
    void on_packet_in(Controller& controller, openflow::ControlChannel&,
                      openflow::PacketIn) override {
      times.push_back(controller.simulator().now());
      if (times.size() == 1)
        controller.charge_extra(sim::Duration::milliseconds(5));
    }
    std::vector<sim::TimePoint> times;
  } app;

  CostProfile profile;
  profile.per_packet_in = sim::Duration::microseconds(10);
  profile.channel_latency = sim::Duration::zero();
  profile.channel_jitter = sim::Duration::zero();
  profile.service_jitter = 0.0;
  Controller controller(sim, "ctl", app, profile);
  controller.attach(sw);

  h.send(0, udp_packet(1, 2));
  h.send(0, udp_packet(1, 2));
  sim.run();
  ASSERT_EQ(app.times.size(), 2u);
  EXPECT_GE((app.times[1] - app.times[0]).ns(),
            sim::Duration::milliseconds(5).ns());
}

TEST(StaticRouting, InstallDirectRoute) {
  sim::Simulator sim;
  Network net(sim);
  auto& sw = net.add_node<openflow::OpenFlowSwitch>("sw");
  auto& a = net.add_node<Probe>("a");
  auto& b = net.add_node<Probe>("b");
  net.connect(sw, a);
  net.connect(sw, b);
  install_mac_route(sw, net::MacAddress::from_id(2), 1);
  a.send(0, udp_packet(1, 2));
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

}  // namespace
}  // namespace netco::controller
