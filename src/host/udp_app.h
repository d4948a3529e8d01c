// iperf-style UDP traffic generator and sink.
//
// The sender paces fixed-size datagrams at a target payload rate (iperf -u
// -b); each datagram carries a sequence number and a send timestamp. The
// sink reproduces iperf's server-side report: goodput, loss rate against
// the expected sequence space, duplicate count, and RFC 3550 interarrival
// jitter.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/units.h"
#include "host/host.h"
#include "sim/simulator.h"

namespace netco::host {

/// Sender configuration.
struct UdpSenderConfig {
  net::MacAddress dst_mac;
  net::Ipv4Address dst_ip;
  std::uint16_t dst_port = 5001;  ///< iperf default
  /// UDP payload bytes per datagram (iperf -l; default 1470).
  std::size_t payload_bytes = 1470;
  /// Target *payload* bit rate (iperf -b semantics).
  DataRate rate = DataRate::megabits_per_sec(100);
};

/// Sender counters.
struct UdpSenderStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t pacing_skips = 0;  ///< ticks skipped because CPU fell behind
};

/// Paced UDP source (iperf -u client).
class UdpSender {
 public:
  /// Minimum payload able to carry seq + timestamp.
  static constexpr std::size_t kMinPayload = 12;

  UdpSender(Host& host, UdpSenderConfig config);

  /// Stops pacing; queued CPU jobs detect the death and no-op.
  ~UdpSender();

  UdpSender(const UdpSender&) = delete;
  UdpSender& operator=(const UdpSender&) = delete;

  /// Starts pacing at the configured rate until stop() (or forever).
  void start();

  /// Stops generating new datagrams.
  void stop();

  /// Counters.
  [[nodiscard]] const UdpSenderStats& stats() const noexcept { return stats_; }

  /// The active configuration.
  [[nodiscard]] const UdpSenderConfig& config() const noexcept {
    return config_;
  }

 private:
  void tick();
  [[nodiscard]] sim::Duration interval() const noexcept;

  Host& host_;
  UdpSenderConfig config_;
  UdpSenderStats stats_;
  std::uint32_t next_seq_ = 0;
  std::size_t pending_ = 0;  ///< datagrams waiting in the CPU queue
  bool running_ = false;
  sim::EventHandle tick_handle_;
  /// Liveness token: CPU jobs hold a weak reference and no-op after death.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Sink report (iperf server-side summary).
struct UdpSinkReport {
  std::uint64_t datagrams_received = 0;  ///< all arrivals, incl. duplicates
  std::uint64_t unique_received = 0;     ///< distinct sequence numbers
  std::uint64_t duplicates = 0;
  std::uint64_t expected = 0;  ///< max_seq + 1 (0 if nothing arrived)
  std::uint64_t lost = 0;      ///< expected - unique_received
  double loss_rate = 0.0;      ///< lost / expected
  double jitter_ms = 0.0;      ///< RFC 3550 smoothed interarrival jitter
  std::uint64_t payload_bytes_unique = 0;
  double goodput_mbps = 0.0;  ///< unique payload bits / measurement time
};

/// UDP sink (iperf -u server).
class UdpSink {
 public:
  /// Binds `port` on `host` and starts counting immediately.
  UdpSink(Host& host, std::uint16_t port);

  /// Unbinds the port.
  ~UdpSink();

  UdpSink(const UdpSink&) = delete;
  UdpSink& operator=(const UdpSink&) = delete;

  /// Clears all counters and restarts the measurement clock (per-run reset).
  void reset();

  /// Snapshot of the report as of now.
  [[nodiscard]] UdpSinkReport report() const;

 private:
  void on_datagram(const net::ParsedPacket& parsed, const net::Packet& packet);

  Host& host_;
  std::uint16_t port_;
  sim::TimePoint window_start_;
  UdpSinkReport live_;
  std::unordered_set<std::uint32_t> seen_;
  std::uint32_t max_seq_ = 0;
  std::uint32_t min_seq_ = 0;  ///< first sequence seen in this window
  bool any_ = false;
  double jitter_ns_ = 0.0;
  std::int64_t prev_transit_ns_ = 0;
  bool have_prev_transit_ = false;
  std::size_t payload_bytes_ = 0;
};

}  // namespace netco::host
