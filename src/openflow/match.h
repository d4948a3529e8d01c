// OpenFlow 1.0 twelve-tuple match with per-field wildcards.
//
// A Match doubles as (a) the exact key extracted from a packet and (b) a
// rule pattern where absent fields are wildcarded. `covers()` implements
// rule-against-key matching. Port numbering is 0-based (the simulator's
// convention) rather than OpenFlow's 1-based numbering.
#pragma once

#include <cstdint>
#include <string>

#include "device/node.h"
#include "net/address.h"
#include "net/headers.h"

namespace netco::openflow {

/// OF 1.0 convention: dl_vlan value meaning "untagged".
inline constexpr std::uint16_t kVlanNone = 0xFFFF;

/// The OpenFlow 1.0 match structure.
class Match {
 public:
  /// Bit per field; a set bit means the field participates in matching.
  enum Field : std::uint32_t {
    kInPort = 1u << 0,
    kDlSrc = 1u << 1,
    kDlDst = 1u << 2,
    kDlVlan = 1u << 3,
    kDlVlanPcp = 1u << 4,
    kDlType = 1u << 5,
    kNwSrc = 1u << 6,
    kNwDst = 1u << 7,
    kNwProto = 1u << 8,
    kNwTos = 1u << 9,
    kTpSrc = 1u << 10,
    kTpDst = 1u << 11,
  };
  static constexpr std::uint32_t kAllFields = (1u << 12) - 1;

  /// Fully wildcarded match (matches everything).
  Match() = default;

  /// Exact match key for a parsed packet arriving on `in_port`.
  /// Missing layers leave their fields wildcarded, per OF 1.0 semantics.
  static Match exact_from(const net::ParsedPacket& parsed,
                          device::PortIndex in_port);

  // --- builder-style setters (chainable) --------------------------------
  Match& with_in_port(device::PortIndex port);
  Match& with_dl_src(const net::MacAddress& mac);
  Match& with_dl_dst(const net::MacAddress& mac);
  Match& with_dl_vlan(std::uint16_t vid);  ///< kVlanNone for "untagged"
  Match& with_dl_vlan_pcp(std::uint8_t pcp);
  Match& with_dl_type(net::EtherType type);
  Match& with_nw_src(net::Ipv4Address ip);
  Match& with_nw_dst(net::Ipv4Address ip);
  Match& with_nw_proto(net::IpProto proto);
  Match& with_nw_tos(std::uint8_t tos);
  Match& with_tp_src(std::uint16_t port);
  Match& with_tp_dst(std::uint16_t port);

  /// True if this pattern (with wildcards) matches the exact `key`.
  [[nodiscard]] bool covers(const Match& key) const noexcept;

  /// True if both patterns name the same fields with the same values
  /// (FlowTable::add's replace and FlowTable::remove_strict).
  [[nodiscard]] bool strictly_equals(const Match& other) const noexcept;

  /// Debug rendering, e.g. "in_port=2 dl_dst=02:..:05".
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint32_t present_ = 0;
  device::PortIndex in_port_ = 0;
  net::MacAddress dl_src_;
  net::MacAddress dl_dst_;
  std::uint16_t dl_vlan_ = kVlanNone;
  std::uint8_t dl_vlan_pcp_ = 0;
  std::uint16_t dl_type_ = 0;
  net::Ipv4Address nw_src_;
  net::Ipv4Address nw_dst_;
  std::uint8_t nw_proto_ = 0;
  std::uint8_t nw_tos_ = 0;
  std::uint16_t tp_src_ = 0;
  std::uint16_t tp_dst_ = 0;
};

}  // namespace netco::openflow
