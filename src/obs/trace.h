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
// A record names its emitting component by an interned ComponentName, not
// a string, so building, copying and hashing a record never touches the
// name's characters; only the JSONL and ring sinks render it as text.
//
// Cost model: the Tracer's disabled path is a single pointer null-check —
// no record construction, no interning, no sink virtual call.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/hash.h"

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

/// A component name ("netco-e0", "s1->r2", ...) interned in one
/// process-wide, append-only table. Interning locks the table's mutex;
/// reading an interned name does not. Entries never die, so a name stays
/// valid however long a record carrying it lives (a ring sink may outlive
/// the fleet cell whose context emitted into it), and two contexts or
/// threads never give one id to different names.
class ComponentName {
 public:
  struct Entry {
    std::string_view text;
    std::uint64_t fnv;  ///< FNV-1a of text
    std::uint32_t id;   ///< dense, in interning order; 0 is the empty name
  };

  /// The empty name.
  constexpr ComponentName() noexcept = default;

  /// The interned name of `text`. The first call for a text adds it to
  /// the table; every later call, from any thread, returns the same name.
  [[nodiscard]] static ComponentName intern(std::string_view text);

  [[nodiscard]] std::string_view text() const noexcept { return entry_->text; }
  /// FNV-1a of text(), precomputed. A hash over records folds this, never
  /// id(), so it does not depend on which names a process interned first.
  [[nodiscard]] std::uint64_t fnv() const noexcept { return entry_->fnv; }
  /// Dense small id for map keys; never fold it into a hash or artifact.
  [[nodiscard]] std::uint32_t id() const noexcept { return entry_->id; }

 private:
  static constexpr Entry kEmpty{{}, kFnvOffset, 0};

  explicit constexpr ComponentName(const Entry* entry) noexcept
      : entry_(entry) {}

  const Entry* entry_ = &kEmpty;
};

/// A hot emitter's own name, interned on its first record: building the
/// component takes no lock (set-up time is an end-to-end figure), and an
/// untraced run interns nothing.
class LazyComponentName {
 public:
  /// The interned `text`, interned on the first call after construction
  /// or reset().
  [[nodiscard]] ComponentName get(std::string_view text) {
    if (!name_) name_ = ComponentName::intern(text);
    return *name_;
  }

  /// Forgets the interned name; call when the component is renamed.
  void reset() noexcept { name_.reset(); }

 private:
  std::optional<ComponentName> name_;
};

/// One structured lifecycle record. It holds no string: the component is
/// an interned ComponentName, so a record is trivially copyable and a
/// sink that does not render text never touches the name's characters.
struct TraceRecord {
  std::int64_t at_ns = 0;        ///< simulated time of the event
  TraceEvent event{};            ///< lifecycle stage
  std::uint64_t packet_id = 0;   ///< stable id (content hash of wire bytes)
  std::int32_t replica = -1;     ///< replica index when attributable, else -1
  std::uint32_t bytes = 0;       ///< packet size on the wire
  ComponentName component;       ///< emitting component ("netco-e0", ...)
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Canonical single-line JSON rendering (no trailing newline). Field order
/// and formatting are fixed — golden tests compare these bytes.
[[nodiscard]] std::string to_json(const TraceRecord& record);

/// Where trace records go.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void append(const TraceRecord& record) = 0;
};

/// Forwards every record to two sinks, first then second.
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink& first, TraceSink& second) noexcept
      : first_(first), second_(second) {}

  void append(const TraceRecord& record) override {
    first_.append(record);
    second_.append(record);
  }

 private:
  TraceSink& first_;
  TraceSink& second_;
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
///
/// Hot emitters (a compare core, a link direction, a switch) pass their
/// name as a ComponentName they interned once, on their first record
/// (LazyComponentName). Cold emitters (health, resilience, routing, the
/// fabric injector) pass text, which emit() interns on each enabled call.
class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return sink_ != nullptr; }

  /// Installs (or, with nullptr, removes) the sink. Non-owning.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }

  /// Emits one record; a no-op costing one branch when disabled.
  void emit(std::int64_t at_ns, TraceEvent event, std::uint64_t packet_id,
            ComponentName component, std::int32_t replica = -1,
            std::uint32_t bytes = 0) {
    if (sink_ == nullptr) [[likely]] return;
    sink_->append(
        TraceRecord{at_ns, event, packet_id, replica, bytes, component});
  }

  /// Cold-site form: interns `component` when enabled.
  void emit(std::int64_t at_ns, TraceEvent event, std::uint64_t packet_id,
            std::string_view component, std::int32_t replica = -1,
            std::uint32_t bytes = 0) {
    if (sink_ == nullptr) [[likely]] return;
    emit(at_ns, event, packet_id, ComponentName::intern(component), replica,
         bytes);
  }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace netco::obs
