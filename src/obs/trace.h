// Packet-lifecycle tracing (ROADMAP observability layer).
//
// Components emit structured records as a packet moves through the
// combiner pipeline:
//
//   replica[i].forward → compare.{ingest, release, evict_timeout,
//   evict_capacity, evict_quota, duplicate, late, mismatch}
//
// Records are keyed by a *stable packet id* — the FNV-1a content hash of
// the wire bytes — so the k copies a hub multiplies share one id and the
// compare's verdict can be joined against every replica's forward of the
// same packet. Call sites pass the id precomputed via
// Packet::content_hash(), which is memoized in the packet's shared COW
// payload buffer: one hash per payload generation, no matter how many
// records a lifecycle emits. The simulator is bit-reproducible (same seed
// → identical event order), so the serialized trace stream is itself a
// deterministic artifact: the golden-trace tests byte-compare whole runs.
//
// Cost model: the Tracer's disabled path is a single pointer null-check —
// no record construction, no string materialization, no sink virtual call.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace netco::obs {

/// The lifecycle stages a packet can be traced through.
enum class TraceEvent : std::uint8_t {
  kReplicaForward,       ///< an (untrusted) switch transmitted the packet
  kCompareIngest,        ///< compare received a copy from replica[i]
  kCompareRelease,       ///< terminal: quorum reached, one copy released
  kCompareEvictTimeout,  ///< terminal: minority packet timed out (§IV case 1)
  kCompareEvictCapacity, ///< terminal: cleanup-pass victim
  kCompareEvictQuota,    ///< terminal: per-replica isolation victim
  kCompareDuplicate,     ///< same replica re-sent the packet (§IV case 2)
  kCompareLate,          ///< copy arrived after the release (never re-released)
  kCompareMismatch,      ///< kFirstCopy: replica[i] failed to confirm (§IV)
  kCompareExpire,        ///< a released (retained) entry aged out of the cache
  kLinkDrop,             ///< drop-tail queue overflow
  kLinkLoss,             ///< fault-injected random loss (link.set_loss)
  kHealthQuarantine,     ///< health loop masked a replica out of the fan-out
  kHealthReadmit,        ///< probation succeeded, replica back in the circuit
  kHealthBan,            ///< quarantine budget exhausted, replica out for good
  kCompareSuppressed,    ///< quorum reached but release withheld (shadow
                         ///< standby, or a checkpoint-restored entry whose
                         ///< pre-crash release status is unknown)
  kResilienceCheckpoint,    ///< compare state serialized to stable storage
  kResilienceCrash,         ///< compare process died (state lost)
  kResilienceHang,          ///< compare process stopped responding
  kResilienceRestore,       ///< compare warm-restarted from a checkpoint
  kResilienceFailover,      ///< standby promoted, feeder ports rewired
  kResilienceHeartbeatMiss, ///< watchdog missed a heartbeat
  kResilienceDegradedEnter, ///< no compare live; degraded policy engaged
  kResilienceDegradedExit,  ///< compare back; degraded policy disengaged
  kResilienceHubCrash,      ///< hub fan-out rules lost (edge index in replica)
  kResilienceHubRestart,    ///< hub rules re-installed, counters continue
  kCompareSampled,          ///< packet elected for the full k-way compare
                            ///< (sampled-verification mode, §XII)
  kCompareFastpath,         ///< fast-path release on a healthy-weighted vote
  kRoutingUpdateTx,         ///< RIP speaker sent an announcement (§15)
  kRoutingUpdateRx,         ///< RIP speaker accepted an announcement
  kRoutingRouteChange,      ///< a table entry was installed/replaced/moved
  kRoutingRouteTimeout,     ///< a route aged out (no re-confirmation)
  kFailoverLinkDown,        ///< fault plan cut a fabric link (§16)
  kFailoverLinkUp,          ///< fault plan restored a fabric link
  kFailoverSwitchKill,      ///< fault plan killed a whole fabric switch
  kFailoverSwitchRestart,   ///< fault plan restarted a fabric switch
  kFailoverPortDead,        ///< keepalive declared a switch port dead
  kFailoverPortLive,        ///< keepalive declared a switch port live again
  kFailoverReroute,         ///< lookup detoured past a dead-guarded rule
};

/// Stable lowercase name ("compare.release", ...) used in the JSON export.
[[nodiscard]] const char* to_string(TraceEvent event) noexcept;

/// One structured lifecycle record.
struct TraceRecord {
  std::int64_t at_ns = 0;        ///< simulated time of the event
  TraceEvent event{};            ///< lifecycle stage
  std::uint64_t packet_id = 0;   ///< stable id (content hash of wire bytes)
  std::int32_t replica = -1;     ///< replica index when attributable, else -1
  std::uint32_t bytes = 0;       ///< packet size on the wire
  std::string component;         ///< emitting component ("netco-e0", ...)
};

/// Canonical single-line JSON rendering (no trailing newline). Field order
/// and formatting are fixed — golden tests compare these bytes.
[[nodiscard]] std::string to_json(const TraceRecord& record);

/// Where trace records go.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void append(const TraceRecord& record) = 0;
};

/// Bounded in-memory sink for tests: keeps the newest `capacity` records.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 1 << 16)
      : capacity_(capacity) {}

  void append(const TraceRecord& record) override;

  [[nodiscard]] const std::deque<TraceRecord>& records() const noexcept {
    return records_;
  }
  /// Total records ever appended (>= records().size() once wrapped).
  [[nodiscard]] std::uint64_t total_appended() const noexcept {
    return appended_;
  }
  /// The whole buffer as newline-separated canonical JSON — the golden
  /// stream the determinism tests byte-compare.
  [[nodiscard]] std::string serialize() const;

  void clear() noexcept {
    records_.clear();
    appended_ = 0;
  }

 private:
  std::size_t capacity_;
  std::uint64_t appended_ = 0;
  std::deque<TraceRecord> records_;
};

/// JSONL file sink for benches (one canonical record per line).
///
/// I/O errors are loud: a path that cannot be opened, or a short fwrite
/// (disk full, closed pipe), aborts via NETCO_ASSERT instead of silently
/// dropping or truncating the stream — a missing or torn trace would
/// otherwise surface later as a baffling golden-trace mismatch rather than
/// an I/O error. Destruction flushes and verifies the flush, so a sink
/// that destructs cleanly has every record on disk.
class JsonlFileSink final : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void append(const TraceRecord& record) override;

  /// Flushes buffered records to the OS; asserts on failure.
  void flush();

  [[nodiscard]] std::uint64_t lines_written() const noexcept {
    return lines_;
  }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t lines_ = 0;
};

/// The emit front-end components talk to. Disabled (no sink) by default.
class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return sink_ != nullptr; }

  /// Installs (or, with nullptr, removes) the sink. Non-owning.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }

  /// Emits one record; a no-op costing one branch when disabled.
  void emit(std::int64_t at_ns, TraceEvent event, std::uint64_t packet_id,
            std::string_view component, std::int32_t replica = -1,
            std::uint32_t bytes = 0) {
    if (sink_ == nullptr) [[likely]] return;
    emit_slow(at_ns, event, packet_id, component, replica, bytes);
  }

 private:
  void emit_slow(std::int64_t at_ns, TraceEvent event,
                 std::uint64_t packet_id, std::string_view component,
                 std::int32_t replica, std::uint32_t bytes);

  TraceSink* sink_ = nullptr;
};

}  // namespace netco::obs
