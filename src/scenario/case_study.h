// The §VI datacenter routing attack case study.
//
// A malicious aggregation switch in a fat-tree mirrors every packet headed
// for the firewall fw1 up to a core switch (exfiltration past the firewall
// position) and drops every packet addressed to vm1 (killing the replies).
// Three scenarios:
//
//   kBaseline  — all switches benign. 10/10 echo cycles; both screening
//                methods (a tcpdump-style tap on one core switch's
//                ingress, and the hosts' MAC-filter stray counts) confirm
//                no packet strays from the benign path.
//   kAttacked  — the aggregation switch misbehaves: fw1 sees every request
//                twice (20 arrivals for 10 sent), vm1 sees 0 replies.
//   kProtected — the same malicious datapath is one replica inside a k=3
//                NetCo combiner: all 10 cycles complete; the mirrored
//                copies arrive at the compare but never leave it.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace netco::scenario {

/// Which §VI scenario to run.
enum class CaseStudyMode : std::uint8_t { kBaseline, kAttacked, kProtected };

/// Display name.
[[nodiscard]] const char* to_string(CaseStudyMode mode) noexcept;

/// Everything the §VI narrative reports.
struct CaseStudyResult {
  int requests_sent = 0;
  int replies_received_at_vm1 = 0;     ///< completed echo cycles
  std::uint64_t requests_at_fw1 = 0;   ///< echo requests fw1 answered
  std::uint64_t mirrored_at_core = 0;  ///< fw1-bound packets seen at the
                                       ///< mirror-target core switch
  std::uint64_t stray_at_hosts = 0;    ///< frames arriving at hosts not
                                       ///< addressed to them
  // Compare-side evidence (kProtected only):
  std::uint64_t compare_ingested = 0;
  std::uint64_t compare_released = 0;
  std::uint64_t compare_evicted_minority = 0;  ///< mirrored copies that died
                                               ///< in the compare
  std::uint64_t attacker_packets_attacked = 0;
};

/// Runs one scenario with `cycles` ICMP echo cycles (paper: 10).
CaseStudyResult run_case_study(CaseStudyMode mode, int cycles = 10,
                               std::uint64_t seed = 1);

}  // namespace netco::scenario
