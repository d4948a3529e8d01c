// RipSpeaker: a RIP-v2-style distance-vector routing process attached to
// one iproute::LegacyRouter.
//
// Each speaker keeps a Bellman–Ford route table (connected networks at
// metric 1 plus learned routes at neighbor metric + 1, infinity = 16),
// exchanges full-table announcements with explicitly configured unicast
// neighbors (routing/rip_msg.h — plain UDP datagrams, so the control
// traffic can ride through a NetCo combiner circuit exactly like data),
// and installs every live learned route into the router's LPM forwarding
// plane. Loop suppression follows RFC 2453: split horizon with poisoned
// reverse on every announcement, periodic full updates, coalesced
// triggered updates on change, and per-route timeout → garbage-collection
// timers.
//
// Timer discipline: *all* speaker timers — periodic, triggered, per-route
// timeout and GC — live on a sim::TimerWheel (PR 8), so a steady-state
// routing plane costs the simulator's binary heap exactly one re-armed
// anchor event no matter how many routes are ticking. The speaker itself
// never calls Simulator::schedule_*; tests/routing_test.cpp asserts the
// heap stays at the lone anchor through steady-state periods.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "iproute/legacy_router.h"
#include "net/headers.h"
#include "obs/observability.h"
#include "routing/rip_msg.h"
#include "sim/timer_wheel.h"

namespace netco::routing {

/// One unicast announcement peer: reachable out `port`, addressed to
/// `ip`/`mac` (no ARP — the control plane must work before convergence).
struct RipNeighbor {
  device::PortIndex port = 0;
  net::Ipv4Address ip;
  net::MacAddress mac;
};

/// Per-speaker protocol timing. The protocol's own timers (rip.cpp) are
/// simulation-scale — milliseconds where the RFC uses tens of seconds —
/// so convergence experiments fit in a few simulated seconds; their
/// ratios match the RFC (a 200 ms update period, a 1 s timeout = 5 ×
/// period, a 400 ms garbage-collection hold and a 10 ms triggered-update
/// coalescing delay).
struct RipConfig {
  /// First periodic update fires this long after start() — harnesses
  /// stagger speakers so periodic updates never synchronize.
  sim::Duration first_update = sim::Duration::milliseconds(5);
};

/// Speaker counters.
struct RipStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t malformed_dropped = 0;  ///< unparseable / unknown neighbor
  std::uint64_t route_changes = 0;      ///< installs, replaces, metric moves
  std::uint64_t routes_timed_out = 0;
  std::uint64_t routes_gced = 0;
  std::uint64_t triggered_updates = 0;
};

/// Read-only view of one table entry (tests, convergence checks).
struct RipRouteView {
  net::Ipv4Address prefix;
  std::uint8_t len = 0;
  std::uint8_t metric = kRipInfinity;
  device::PortIndex port = 0;
  net::Ipv4Address next_hop;  ///< 0.0.0.0 for connected routes
  bool connected = false;

  friend bool operator==(const RipRouteView&, const RipRouteView&) = default;
};

/// The distance-vector process (see file comment).
class RipSpeaker {
 public:
  /// Announcement egress seam: defaults to LegacyRouter::raw_output.
  /// Tests swap in a capture function to exercise the speaker on a bare
  /// simulator with no links at all.
  using Transport = std::function<void(device::PortIndex, net::Packet)>;

  RipSpeaker(iproute::LegacyRouter& router, RipConfig config = {});

  RipSpeaker(const RipSpeaker&) = delete;
  RipSpeaker& operator=(const RipSpeaker&) = delete;
  ~RipSpeaker();

  /// Declares a directly connected network behind `port` (advertised at
  /// metric 1, never expires). The harness owns the FIB entry for
  /// connected networks; the speaker only advertises them.
  void add_connected(net::Ipv4Address prefix, int len,
                     device::PortIndex port);

  /// Declares an announcement peer. Call before start().
  void add_neighbor(RipNeighbor neighbor);

  /// Replaces the announcement egress (tests only).
  void set_transport(Transport transport) {
    transport_ = std::move(transport);
  }

  /// Hooks the router's local UDP delivery and arms the periodic update
  /// timer (first fire after config.first_update).
  void start();

  /// Looks up one table entry.
  [[nodiscard]] std::optional<RipRouteView> route(net::Ipv4Address prefix,
                                                  int len) const;

  /// Every live table entry, in slot order (stable across queries).
  [[nodiscard]] std::vector<RipRouteView> table() const;

  [[nodiscard]] const RipStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const sim::TimerWheel& wheel() const noexcept {
    return wheel_;
  }
  [[nodiscard]] iproute::LegacyRouter& router() noexcept { return router_; }

 private:
  struct Route {
    net::Ipv4Address prefix;
    std::uint8_t len = 0;
    std::uint8_t metric = kRipInfinity;
    device::PortIndex port = 0;
    net::Ipv4Address next_hop;  ///< advertising neighbor (0 = connected)
    net::MacAddress next_mac;
    bool connected = false;
    bool live = false;  ///< slot in use
    sim::TimerWheel::TimerId timeout_timer = sim::TimerWheel::kInvalidTimerId;
    sim::TimerWheel::TimerId gc_timer = sim::TimerWheel::kInvalidTimerId;
  };

  // Timer trampolines (wheel callbacks are POD function pointers).
  static void on_periodic(void* ctx, std::uint64_t);
  static void on_triggered(void* ctx, std::uint64_t);
  static void on_timeout(void* ctx, std::uint64_t slot);
  static void on_gc(void* ctx, std::uint64_t slot);

  void handle_datagram(device::PortIndex in_port,
                       const net::ParsedPacket& parsed,
                       const net::Packet& packet);
  void process_entry(const RipNeighbor& neighbor, const RipEntry& entry);
  void send_updates();
  void send_update_to(const RipNeighbor& neighbor);
  void arm_timeout(std::uint32_t slot);
  /// Route became unreachable: metric 16, FIB entry pulled, GC armed.
  void invalidate(std::uint32_t slot);
  /// GC fired: slot freed.
  void remove(std::uint32_t slot);
  void schedule_triggered();
  void note_change(const Route& route);
  [[nodiscard]] std::int32_t find(net::Ipv4Address prefix,
                                  std::uint8_t len) const;
  std::uint32_t allocate_slot();

  iproute::LegacyRouter& router_;
  RipConfig config_;
  sim::TimerWheel wheel_;
  Transport transport_;
  std::vector<RipNeighbor> neighbors_;
  std::vector<Route> routes_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t seq_ = 0;
  bool started_ = false;
  bool triggered_pending_ = false;
  RipStats stats_;
  obs::Observability* obs_;
};

}  // namespace netco::routing
