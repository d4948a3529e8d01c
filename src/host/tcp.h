// Simplified TCP (Reno with NewReno partial-ACK recovery) for iperf-style
// bulk transfer.
//
// Scope: unidirectional data with cumulative ACKs, slow start, congestion
// avoidance, fast retransmit/recovery, RTO with Karn's rule and exponential
// backoff, delayed ACKs, and an out-of-order reassembly buffer on the
// receiver. A single-block SACK option provides the hole evidence dup-ACK
// accounting needs (and DSACK semantics for duplicated copies). No
// handshake/teardown (a measurement flow starts established, like iperf
// after connect()) and no window scaling (the receive window is a config
// constant shared by both ends). These simplifications
// do not affect what the paper measures: steady-state congestion behaviour
// through the combiner, including the response to duplicated and dropped
// segments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "host/host.h"
#include "sim/simulator.h"

namespace netco::host {

/// Shared flow parameters.
struct TcpConfig {
  net::MacAddress peer_mac;
  net::Ipv4Address peer_ip;
  std::uint16_t local_port = 5001;
  std::uint16_t peer_port = 5001;
  std::size_t rwnd = 262144;  ///< receive window honoured by the sender
  std::size_t init_cwnd_segments = 10;  ///< RFC 6928 initial window
};

/// Sender-side counters.
struct TcpSenderStats {
  std::uint64_t bytes_acked = 0;     ///< goodput numerator
  std::uint64_t segments_sent = 0;   ///< includes retransmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_fires = 0;
  double srtt_ms = 0.0;  ///< smoothed RTT at last sample
};

/// Bulk-data TCP sender (iperf client). Data is an infinite zero stream.
class TcpSender {
 public:
  TcpSender(Host& host, TcpConfig config);

  /// Cancels the RTO timer and unbinds the port; pending CPU jobs no-op.
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Starts transmitting until stop().
  void start();

  /// Freezes the sender (timers cancelled, no further transmissions).
  void stop();

  /// Counters.
  [[nodiscard]] const TcpSenderStats& stats() const noexcept { return stats_; }

  /// Current congestion window in bytes (tests/telemetry).
  [[nodiscard]] double cwnd() const noexcept { return cwnd_; }

 private:
  void on_ack(const net::ParsedPacket& parsed);
  void try_send();
  void emit_segment(std::uint64_t seq, bool is_retransmission);
  void arm_rto();
  void on_rto();
  void enter_fast_retransmit();
  [[nodiscard]] std::uint64_t flight_size() const noexcept {
    return snd_nxt_ - snd_una_;
  }
  [[nodiscard]] sim::Duration rto() const noexcept;

  Host& host_;
  TcpConfig config_;
  TcpSenderStats stats_;
  bool running_ = false;
  bool tx_pending_ = false;  ///< a segment is in the CPU queue

  // Sequence state (byte offsets; all segments are MSS-sized).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t snd_max_ = 0;  ///< highest byte ever transmitted

  // Congestion state.
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;

  // RTT estimation (RFC 6298).
  bool have_rtt_ = false;
  double srtt_ns_ = 0.0;
  double rttvar_ns_ = 0.0;
  int rto_backoff_ = 0;
  std::optional<std::pair<std::uint64_t, sim::TimePoint>> rtt_sample_;
  sim::EventHandle rto_handle_;
  /// Liveness token for CPU jobs in flight at destruction time.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Receiver-side counters.
struct TcpReceiverStats {
  std::uint64_t bytes_delivered = 0;  ///< in-order bytes handed to the app
  std::uint64_t segments_received = 0;
  std::uint64_t duplicate_segments = 0;
  std::uint64_t out_of_order_segments = 0;
  std::uint64_t acks_sent = 0;
};

/// Bulk-data TCP receiver (iperf server).
class TcpReceiver {
 public:
  TcpReceiver(Host& host, TcpConfig config);

  /// Cancels the delayed-ACK timer and unbinds the port.
  ~TcpReceiver();

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  /// Counters.
  [[nodiscard]] const TcpReceiverStats& stats() const noexcept {
    return stats_;
  }

  /// Clears the delivered-byte counter (per-run measurement reset).
  void reset_delivered() { stats_.bytes_delivered = 0; }

 private:
  void on_segment(const net::ParsedPacket& parsed, const net::Packet& packet);
  void send_ack();
  void schedule_delayed_ack();

  Host& host_;
  TcpConfig config_;
  TcpReceiverStats stats_;
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::size_t> ooo_;  ///< seq → len
  int unacked_in_order_ = 0;
  sim::EventHandle delack_handle_;
};

}  // namespace netco::host
