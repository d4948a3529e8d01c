#include "obs/trace.h"

#include <cstdio>
#include <mutex>
#include <span>
#include <unordered_map>

#include "common/assert.h"

namespace netco::obs {

namespace {

/// The process-wide name table (see ComponentName).
struct NameTable {
  std::mutex mutex;
  /// Node-based, so neither a key nor its entry ever moves: each entry's
  /// text views its own key.
  std::unordered_map<std::string, ComponentName::Entry> entries;
};

NameTable& name_table() {
  // Never destroyed, so a name read during static destruction still holds.
  static NameTable* const table = new NameTable;
  return *table;
}

}  // namespace

ComponentName ComponentName::intern(std::string_view text) {
  if (text.empty()) return {};
  NameTable& table = name_table();
  const std::lock_guard lock(table.mutex);
  auto [it, inserted] = table.entries.try_emplace(std::string(text));
  if (inserted) {
    const std::string& key = it->first;
    const auto bytes = std::as_bytes(std::span(key.data(), key.size()));
    it->second = Entry{key, fnv1a(bytes),
                       static_cast<std::uint32_t>(table.entries.size())};
  }
  return ComponentName(&it->second);
}

const char* to_string(TraceEvent event) noexcept {
  switch (event) {
    case TraceEvent::kReplicaForward: return "replica.forward";
    case TraceEvent::kCompareIngest: return "compare.ingest";
    case TraceEvent::kCompareRelease: return "compare.release";
    case TraceEvent::kCompareEvictTimeout: return "compare.evict_timeout";
    case TraceEvent::kCompareEvictCapacity: return "compare.evict_capacity";
    case TraceEvent::kCompareEvictQuota: return "compare.evict_quota";
    case TraceEvent::kCompareDuplicate: return "compare.duplicate";
    case TraceEvent::kCompareLate: return "compare.late";
    case TraceEvent::kCompareMismatch: return "compare.mismatch";
    case TraceEvent::kCompareExpire: return "compare.expire";
    case TraceEvent::kLinkDrop: return "link.drop";
    case TraceEvent::kLinkLoss: return "link.loss";
    case TraceEvent::kHealthQuarantine: return "health.quarantine";
    case TraceEvent::kHealthReadmit: return "health.readmit";
    case TraceEvent::kHealthBan: return "health.ban";
    case TraceEvent::kCompareSuppressed: return "compare.suppressed";
    case TraceEvent::kResilienceCheckpoint: return "resilience.checkpoint";
    case TraceEvent::kResilienceCrash: return "resilience.crash";
    case TraceEvent::kResilienceHang: return "resilience.hang";
    case TraceEvent::kResilienceRestore: return "resilience.restore";
    case TraceEvent::kResilienceFailover: return "resilience.failover";
    case TraceEvent::kResilienceHeartbeatMiss:
      return "resilience.heartbeat_miss";
    case TraceEvent::kResilienceDegradedEnter:
      return "resilience.degraded_enter";
    case TraceEvent::kResilienceDegradedExit:
      return "resilience.degraded_exit";
    case TraceEvent::kResilienceHubCrash: return "resilience.hub_crash";
    case TraceEvent::kResilienceHubRestart: return "resilience.hub_restart";
    case TraceEvent::kCompareSampled: return "compare.sampled";
    case TraceEvent::kCompareFastpath: return "compare.fastpath";
    case TraceEvent::kRoutingUpdateTx: return "routing.update_tx";
    case TraceEvent::kRoutingUpdateRx: return "routing.update_rx";
    case TraceEvent::kRoutingRouteChange: return "routing.route_change";
    case TraceEvent::kRoutingRouteTimeout: return "routing.route_timeout";
    case TraceEvent::kFailoverLinkDown: return "failover.link_down";
    case TraceEvent::kFailoverLinkUp: return "failover.link_up";
    case TraceEvent::kFailoverSwitchKill: return "failover.switch_kill";
    case TraceEvent::kFailoverSwitchRestart: return "failover.switch_restart";
    case TraceEvent::kFailoverPortDead: return "failover.port_dead";
    case TraceEvent::kFailoverPortLive: return "failover.port_live";
    case TraceEvent::kFailoverReroute: return "failover.reroute";
  }
  return "unknown";
}

std::string to_json(const TraceRecord& record) {
  // %016llx keeps packet ids fixed-width so streams diff cleanly.
  char head[160];
  const int n = std::snprintf(
      head, sizeof head,
      "{\"t\":%lld,\"ev\":\"%s\",\"pkt\":\"%016llx\",\"replica\":%d,"
      "\"bytes\":%u,\"src\":\"",
      static_cast<long long>(record.at_ns), to_string(record.event),
      static_cast<unsigned long long>(record.packet_id), record.replica,
      record.bytes);
  std::string out(head, static_cast<std::size_t>(n));
  out += record.component.text();  // component names are plain identifiers
  out += "\"}";
  return out;
}

void RingBufferSink::append(const TraceRecord& record) {
  ++appended_;
  if (records_.size() == capacity_) records_.pop_front();
  records_.push_back(record);
}

std::string RingBufferSink::serialize() const {
  std::string out;
  for (const auto& record : records_) {
    out += to_json(record);
    out += '\n';
  }
  return out;
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  NETCO_ASSERT_MSG(file_ != nullptr,
                   ("trace sink: cannot open " + path).c_str());
}

JsonlFileSink::~JsonlFileSink() {
  // Flush before close so a failure (ENOSPC surfacing at the final
  // buffer drain) is distinguishable from a close error, and a cleanly
  // destructed sink deterministically has every record on disk.
  const bool flushed = std::fflush(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  NETCO_ASSERT_MSG(flushed, "trace sink: final flush failed (disk full?)");
}

void JsonlFileSink::append(const TraceRecord& record) {
  const std::string line = to_json(record);
  const std::size_t wrote = std::fwrite(line.data(), 1, line.size(), file_);
  const bool ok = wrote == line.size() && std::fputc('\n', file_) != EOF;
  NETCO_ASSERT_MSG(ok, "trace sink: short write (disk full?)");
}

void JsonlFileSink::flush() {
  NETCO_ASSERT_MSG(std::fflush(file_) == 0,
                   "trace sink: flush failed (disk full?)");
}

}  // namespace netco::obs
