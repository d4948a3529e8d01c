// Unit tests for the link layer: serialization, propagation, queueing,
// drop-tail behaviour, and the Node/Network wiring.
#include <gtest/gtest.h>

#include <vector>

#include "device/network.h"
#include "device/node.h"
#include "link/link.h"
#include "obs/observability.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace netco {
namespace {

using device::Network;
using device::Node;
using device::PortIndex;

/// Test node that records every delivery with its arrival time.
class SinkNode : public Node {
 public:
  using Node::Node;
  void handle_packet(PortIndex in_port, net::Packet packet) override {
    arrivals.push_back({simulator().now(), in_port, std::move(packet)});
  }
  struct Arrival {
    sim::TimePoint at;
    PortIndex port;
    net::Packet packet;
  };
  std::vector<Arrival> arrivals;
};

net::Packet frame(std::size_t size) { return net::Packet::zeroed(size); }

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  link::LinkConfig config;
  config.rate = DataRate::gigabits_per_sec(1);
  config.propagation = sim::Duration::microseconds(5);
  net.connect(a, b, config);

  a.send(0, frame(1500));  // 12 µs serialization + 5 µs propagation
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].at.ns(), sim::Duration::microseconds(17).ns());
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  link::LinkConfig config;
  config.rate = DataRate::gigabits_per_sec(1);
  config.propagation = sim::Duration::zero();
  net.connect(a, b, config);

  a.send(0, frame(1500));
  a.send(0, frame(1500));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].at.ns(), sim::Duration::microseconds(12).ns());
  EXPECT_EQ(b.arrivals[1].at.ns(), sim::Duration::microseconds(24).ns());
}

TEST(Link, FullDuplexDirectionsAreIndependent) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a, b);

  a.send(0, frame(100));
  b.send(0, frame(100));
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(Link, DropTailWhenQueueFull) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  link::LinkConfig config;
  config.rate = DataRate::megabits_per_sec(10);  // slow: 1500B = 1.2 ms
  config.queue_bytes = 3000;                     // room for 2 queued frames
  const auto conn = net.connect(a, b, config);

  for (int i = 0; i < 5; ++i) a.send(0, frame(1500));
  sim.run();
  // 1 in flight + 2 queued = 3 delivered; 2 dropped.
  EXPECT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(conn.link->forward().stats().dropped_packets, 2u);
  EXPECT_EQ(conn.link->forward().stats().tx_packets, 3u);
  EXPECT_EQ(conn.link->forward().stats().tx_bytes, 4500u);
}

TEST(Link, QueueDrainsAndAcceptsAgain) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  link::LinkConfig config;
  config.rate = DataRate::megabits_per_sec(10);
  config.queue_bytes = 1500;
  net.connect(a, b, config);

  a.send(0, frame(1500));
  a.send(0, frame(1500));
  sim.run();  // both delivered (one in flight, one queued)
  a.send(0, frame(1500));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 3u);
}

TEST(Link, StatsTrackHighWaterMark) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  link::LinkConfig config;
  config.rate = DataRate::megabits_per_sec(10);
  config.queue_bytes = 10'000;
  const auto conn = net.connect(a, b, config);

  for (int i = 0; i < 4; ++i) a.send(0, frame(1000));
  sim.run();
  EXPECT_EQ(conn.link->forward().stats().max_queue_bytes, 3000u);
}

TEST(Node, FloodCopiesToAllButExcept) {
  sim::Simulator sim;
  Network net(sim);
  auto& hub = net.add_node<SinkNode>("hub");
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");
  net.connect(hub, a);
  net.connect(hub, b);
  net.connect(hub, c);

  hub.flood(0, frame(64));  // skip port 0 (toward a)
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 1u);

  hub.flood(device::kNoPort, frame(64));  // all ports
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 2u);
}

TEST(Network, FindByName) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("alpha");
  EXPECT_EQ(net.find("alpha"), &a);
  EXPECT_EQ(net.find("beta"), nullptr);
}

TEST(Network, ConnectAllocatesSequentialPorts) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");
  const auto ab = net.connect(a, b);
  const auto ac = net.connect(a, c);
  EXPECT_EQ(ab.a_port, 0u);
  EXPECT_EQ(ac.a_port, 1u);
  EXPECT_EQ(ab.b_port, 0u);
  EXPECT_EQ(ac.b_port, 0u);
  EXPECT_EQ(a.port_count(), 2u);
}

TEST(Node, PacketContentSurvivesTransit) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a, b);

  net::Packet p = frame(64);
  p.set_u8(10, 0x42);
  a.send(0, p);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].packet, p);
}

TEST(Link, DownChannelDiscards) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  const auto conn = net.connect(a, b);

  conn.link->set_down(true);
  a.send(0, frame(100));
  b.send(0, frame(100));
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(b.arrivals.size(), 0u);
  EXPECT_EQ(conn.link->forward().stats().dropped_down, 1u);
  EXPECT_EQ(conn.link->reverse().stats().dropped_down, 1u);

  conn.link->set_down(false);
  a.send(0, frame(100));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(Link, LossyChannelDropsAndTracesOwningLinkName) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("alpha");
  auto& b = net.add_node<SinkNode>("bravo");
  const auto conn = net.connect(a, b);
  conn.link->set_loss(1.0);

  obs::RingBufferSink ring;
  obs::ScopedTraceSink scoped(ring);
  a.send(0, frame(100));
  b.send(0, frame(100));
  sim.run();

  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(b.arrivals.size(), 0u);
  EXPECT_EQ(conn.link->forward().stats().dropped_loss, 1u);
  EXPECT_EQ(conn.link->reverse().stats().dropped_loss, 1u);
  // Trace records name the owning link per direction — not a literal
  // "link" — so multi-link topologies stay attributable.
  ASSERT_EQ(ring.records().size(), 2u);
  EXPECT_EQ(ring.records()[0].event, obs::TraceEvent::kLinkLoss);
  EXPECT_EQ(ring.records()[0].component.text(), "alpha->bravo");
  EXPECT_EQ(ring.records()[1].component.text(), "bravo->alpha");

  conn.link->set_loss(0.0);
  a.send(0, frame(100));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(Link, ExtraLatencyDelaysDelivery) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  const auto conn = net.connect(a, b);

  a.send(0, frame(100));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  const sim::TimePoint base = b.arrivals[0].at;

  conn.link->set_extra_latency(sim::Duration::milliseconds(3));
  const sim::TimePoint resent = sim.now();
  a.send(0, frame(100));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ((b.arrivals[1].at - resent) - (base - sim::TimePoint::origin()),
            sim::Duration::milliseconds(3));
}

TEST(Link, InFlightPacketStillArrivesAfterCut) {
  sim::Simulator sim;
  Network net(sim);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  link::LinkConfig config;
  config.propagation = sim::Duration::milliseconds(5);
  const auto conn = net.connect(a, b, config);

  a.send(0, frame(100));
  sim.schedule_after(sim::Duration::milliseconds(1),
                     [&] { conn.link->set_down(true); });
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);  // already on the wire
}

TEST(Link, BindRemotePostsOverShardChannel) {
  sim::Simulator sim;
  link::LinkConfig config;
  config.rate = DataRate::gigabits_per_sec(1);
  config.propagation = sim::Duration::microseconds(5);
  link::Channel tx(sim, config);
  sim::ShardChannel shard(0, 1, config.propagation, 64);

  std::vector<std::size_t> delivered;
  tx.bind_remote(shard, [&](net::Packet packet) {
    delivered.push_back(packet.size());
  });
  tx.send(frame(1500));  // 12 µs serialization + 5 µs propagation
  sim.run();

  // Nothing runs on the local event loop; the delivery sits in the
  // cross-shard channel, stamped with the wire arrival time.
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(tx.stats().tx_packets, 1u);
  sim::ShardChannel::Message msg;
  ASSERT_TRUE(shard.pop(msg));
  EXPECT_EQ(msg.deliver_ns, sim::Duration::microseconds(17).ns());
  msg.fn();  // what the receiving shard's simulator would execute
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 1500u);
  EXPECT_FALSE(shard.pop(msg));
}

TEST(Link, BindRemoteKeepsQueueingSemantics) {
  // Back-to-back sends must serialize sequentially before crossing the
  // shard boundary — remote mode changes the delivery path, not the
  // transmitter model.
  sim::Simulator sim;
  link::LinkConfig config;
  config.rate = DataRate::gigabits_per_sec(1);
  config.propagation = sim::Duration::microseconds(1);
  link::Channel tx(sim, config);
  sim::ShardChannel shard(0, 1, sim::Duration::microseconds(1), 64);
  tx.bind_remote(shard, [](net::Packet) {});

  tx.send(frame(1500));  // 12 µs on the wire
  tx.send(frame(1500));  // queued behind the first
  sim.run();

  sim::ShardChannel::Message first;
  sim::ShardChannel::Message second;
  ASSERT_TRUE(shard.pop(first));
  ASSERT_TRUE(shard.pop(second));
  EXPECT_EQ(first.deliver_ns, sim::Duration::microseconds(13).ns());
  EXPECT_EQ(second.deliver_ns, sim::Duration::microseconds(25).ns());
  EXPECT_LT(first.seq, second.seq);
}

}  // namespace
}  // namespace netco
