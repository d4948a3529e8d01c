// SDN controller framework.
//
// A Controller multiplexes any number of switch control channels onto a
// single-threaded event handler with a configurable per-message CPU cost.
// The cost profile is how the paper's POX3-vs-Central3 gap is modelled:
// an interpreted-Python controller spends over an order of magnitude more
// CPU per packet-in than compiled C, and every data packet in the POX
// scenario takes the controller round trip.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "openflow/channel.h"
#include "openflow/switch.h"
#include "sim/simulator.h"

namespace netco::controller {

/// CPU/latency personality of a controller process.
struct CostProfile {
  std::string name = "c";
  /// CPU time consumed per packet-in before the handler runs (fixed part;
  /// per_byte_ns adds a size-dependent copy/compare term). Messages are
  /// serviced strictly in arrival order by one CPU.
  sim::Duration per_packet_in = sim::Duration::microseconds(2);
  /// Per-byte handling cost of a packet-in's frame.
  double per_byte_ns = 0.0;
  /// One-way control channel latency to every attached switch.
  sim::Duration channel_latency = sim::Duration::microseconds(20);
  /// Additional U(0, jitter) per message on the channel (kernel/NIC
  /// scheduling noise; de-bunches near-simultaneous copies).
  sim::Duration channel_jitter = sim::Duration::microseconds(20);
  /// Packet-in queue capacity (tail drop).
  std::size_t max_queue = 4096;
  /// Relative service-time jitter: each message costs
  /// per_packet_in × U(1-jitter, 1+jitter) of CPU. Real per-packet costs
  /// vary (caches, interrupts); a perfectly deterministic server lets
  /// lockstep arrival patterns slip exactly k-1 copies of every packet
  /// through a full queue, which no real compare process exhibits.
  double service_jitter = 0.3;

  /// Compiled-C process wired close to the data plane (the paper's h3).
  static CostProfile c_program();
  /// Interpreted POX/Python controller application.
  static CostProfile pox();
};

class Controller;

/// Controller application logic (the "app" running on the controller).
class App {
 public:
  virtual ~App() = default;

  /// A switch was attached; install proactive state here if desired.
  virtual void on_attached(Controller& controller,
                           openflow::ControlChannel& channel) {
    (void)controller;
    (void)channel;
  }

  /// A packet-in was dequeued and charged its CPU cost.
  virtual void on_packet_in(Controller& controller,
                            openflow::ControlChannel& channel,
                            openflow::PacketIn event) = 0;
};

/// Controller runtime statistics.
struct ControllerStats {
  std::uint64_t packet_ins_received = 0;
  std::uint64_t packet_ins_dropped = 0;  ///< queue overflow
  std::size_t max_queue_depth = 0;
};

/// A logically centralized controller process.
class Controller : public openflow::ControllerEndpoint {
 public:
  Controller(sim::Simulator& simulator, std::string name, App& app,
             CostProfile profile = CostProfile::c_program());

  /// Connects `sw` to this controller; the channel uses the profile's
  /// latency. Returns the channel (owned by the controller).
  openflow::ControlChannel& attach(openflow::OpenFlowSwitch& sw);

  // ControllerEndpoint:
  void on_packet_in(openflow::ControlChannel& channel,
                    openflow::PacketIn event) override;

  /// Lets an app bill additional CPU time discovered while handling a
  /// message (e.g. the compare's cache-cleanup pass). The debt delays the
  /// next message's service — the mechanism behind the paper's observation
  /// that frequent cache cleanups raise jitter.
  void charge_extra(sim::Duration cost) { extra_debt_ += cost; }

  /// Runtime counters.
  [[nodiscard]] const ControllerStats& stats() const noexcept { return stats_; }

  /// The cost profile in force.
  [[nodiscard]] const CostProfile& profile() const noexcept { return profile_; }

  /// Controller process name (for logs).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The event loop.
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

 private:
  struct Pending {
    openflow::ControlChannel* channel;
    openflow::PacketIn event;
  };
  void drain();

  sim::Simulator& simulator_;
  std::string name_;
  App& app_;
  CostProfile profile_;
  std::vector<std::unique_ptr<openflow::ControlChannel>> channels_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  bool dropping_ = false;  ///< hysteresis overflow state
  sim::Duration extra_debt_ = sim::Duration::zero();
  ControllerStats stats_;
};

}  // namespace netco::controller
