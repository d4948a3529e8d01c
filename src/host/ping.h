// ICMP echo measurement tool (the paper's `ping` runs, Fig. 7).
//
// Sends echo requests at a fixed interval, records the RTT of the *first*
// reply per sequence number (duplicate replies — e.g. from a Dup scenario —
// are counted but ignored), and reports min/avg/max/mdev like ping does.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "host/host.h"
#include "sim/simulator.h"

namespace netco::host {

/// Pinger configuration.
struct PingConfig {
  net::MacAddress dst_mac;
  net::Ipv4Address dst_ip;
  sim::Duration interval = sim::Duration::milliseconds(10);
  sim::Duration timeout = sim::Duration::seconds(1);
  int count = 50;  ///< echo cycles per sequence (paper: 50)
};

/// Final ping statistics.
struct PingReport {
  int transmitted = 0;
  int received = 0;          ///< sequences with at least one reply
  int duplicates = 0;        ///< extra replies beyond the first
  double min_ms = 0.0;
  double avg_ms = 0.0;
  double max_ms = 0.0;
  double mdev_ms = 0.0;
  std::vector<double> rtts_ms;  ///< per-sequence RTT samples
};

/// One ping run. Construct, start(), run the simulator, then report().
class IcmpPinger {
 public:
  IcmpPinger(Host& host, PingConfig config);

  /// Cancels every outstanding timer and unbinds the reply handler: a
  /// pinger may safely die while the simulation keeps running.
  ~IcmpPinger();

  IcmpPinger(const IcmpPinger&) = delete;
  IcmpPinger& operator=(const IcmpPinger&) = delete;

  /// Begins the run; `on_done` (optional) fires after the last timeout.
  void start(std::function<void()> on_done = nullptr);

  /// True once every request has been answered or timed out.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Statistics (valid any time; final once finished()).
  [[nodiscard]] PingReport report() const;

 private:
  void send_next();
  void on_reply(const net::ParsedPacket& parsed);
  void finish_if_done();

  Host& host_;
  PingConfig config_;
  int sent_ = 0;
  int outstanding_ = 0;
  bool all_sent_ = false;
  bool finished_ = false;
  std::function<void()> on_done_;
  std::unordered_map<std::uint16_t, sim::TimePoint> pending_;  ///< seq → sent at
  std::unordered_map<std::uint16_t, double> rtt_by_seq_;
  int duplicates_ = 0;
  std::vector<sim::EventHandle> timers_;  ///< cancelled on destruction
};

}  // namespace netco::host
