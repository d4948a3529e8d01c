// The §VI case study as a narrated walk-through: a malicious aggregation
// switch in a k=4 fat-tree exfiltrates firewall-bound traffic and censors
// the replies — then NetCo is deployed around it.
//
//   ./build/examples/datacenter_attack
#include <cstdio>
#include <initializer_list>

#include "scenario/case_study.h"

int main() {
  using namespace netco::scenario;

  std::printf("NetCo case study: routing attack in a k=4 fat-tree\n");
  std::printf("vm1 pings fw1 across the pod; the aggregation switch on the "
              "path is compromised.\n\n");

  for (auto mode : {CaseStudyMode::kBaseline, CaseStudyMode::kAttacked,
                    CaseStudyMode::kProtected}) {
    const auto r = run_case_study(mode, 10);
    std::printf("--- %s ---\n", to_string(mode));
    std::printf("  ICMP cycles:        %d sent, %d completed\n",
                r.requests_sent, r.replies_received_at_vm1);
    std::printf("  requests at fw1:    %llu\n",
                static_cast<unsigned long long>(r.requests_at_fw1));
    std::printf("  copies at core:     %llu\n",
                static_cast<unsigned long long>(r.mirrored_at_core));
    std::printf("  stray frames:       %llu\n",
                static_cast<unsigned long long>(r.stray_at_hosts));
    switch (mode) {
      case CaseStudyMode::kBaseline:
        std::printf("  => ten perfect cycles; both screening methods "
                    "(a core ingress tap, host MAC filters)\n"
                    "     confirm no packet strays from the benign path.\n\n");
        break;
      case CaseStudyMode::kAttacked:
        std::printf("  => the mirror delivers every request TWICE to fw1 "
                    "via the core (exfiltration\n"
                    "     past the firewall position) and the drop rule "
                    "silences vm1 completely.\n\n");
        break;
      case CaseStudyMode::kProtected:
        std::printf("  compare: ingested=%llu released=%llu "
                    "minority-evicted=%llu\n",
                    static_cast<unsigned long long>(r.compare_ingested),
                    static_cast<unsigned long long>(r.compare_released),
                    static_cast<unsigned long long>(
                        r.compare_evicted_minority));
        std::printf("  => the same malicious datapath now sits inside a k=3 "
                    "combiner: its mirrored\n"
                    "     copies reach the compare but never win a majority; "
                    "its dropped replies\n"
                    "     lose the vote 2:1. All ten cycles complete.\n\n");
        break;
    }
  }
  return 0;
}
