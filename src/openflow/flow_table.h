// OpenFlow 1.0 flow table: prioritized match-action rules, with the
// fast-failover liveness guard the static failover compiler relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "device/node.h"
#include "openflow/action.h"
#include "openflow/match.h"

namespace netco::openflow {

/// Cookie stamped on rules installed by the static failover compiler
/// (src/failover): the datapath counts hits on these as
/// "resilience.static_hit" — traffic carried by the pre-installed backup
/// layer rather than the primary routing.
inline constexpr std::uint64_t kFailoverCookie = 0xFA11'0FEE;

/// One flow rule.
struct FlowSpec {
  Match match;                ///< pattern (wildcards allowed)
  ActionList actions;         ///< empty == drop
  std::uint16_t priority = 0; ///< higher wins
  std::uint64_t cookie = 0;   ///< opaque controller tag
  /// Per-port liveness guard (OF fast-failover semantics): when set, the
  /// rule only matches while this port is live per the liveness vector
  /// the datapath hands to lookup(). kNoPort = unconditional. This is how
  /// the failover compiler chains primary → backup rules without any
  /// controller round-trip: the guard flips with the keepalive state and
  /// the next lower-priority rule takes over instantly.
  device::PortIndex guard_port = device::kNoPort;
};

/// A single OF 1.0 flow table (the prototype uses table 0 only).
class FlowTable {
 public:
  /// Installs `spec`; replaces a rule whose match strictly equals it at
  /// the same priority (OFPFC_ADD overlap behaviour), otherwise appends.
  void add(FlowSpec spec);

  /// OFPFC_DELETE_STRICT: removes the rule with exactly this match and
  /// priority, if present.
  std::size_t remove_strict(const Match& match, std::uint16_t priority);

  /// Highest-priority rule covering the exact key; nullptr on table miss.
  ///
  /// When `dead_ports` is given, rules whose guard_port indexes a true
  /// slot are skipped (fast-failover group semantics). `guard_skipped`,
  /// when non-null, is set to whether at least one covering rule was
  /// skipped this way before the returned hit — i.e. the packet was
  /// actively rerouted around a dead port, not just carried by a backup
  /// rule it would have matched anyway.
  [[nodiscard]] const FlowSpec* lookup(
      const Match& key, const std::vector<bool>* dead_ports = nullptr,
      bool* guard_skipped = nullptr) const;

  /// All rules (monitoring; order is priority-descending).
  [[nodiscard]] const std::vector<FlowSpec>& entries() const noexcept {
    return entries_;
  }

  /// Number of installed rules.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  // Sorted by priority descending; stable order within equal priorities
  // (first-installed wins, which is deterministic and matches common
  // switch behaviour for overlapping rules).
  std::vector<FlowSpec> entries_;
};

}  // namespace netco::openflow
