// Observability context: one Tracer + one MetricsRegistry.
//
// Components look their context up once, at construction (obs::global()),
// and keep the pointer; the Tracer's null-sink check is then the entire
// disabled-path cost. global() is the calling thread's *current* context:
// the thread's own thread-local one unless set_current() installed
// another. Every harness run, solo or in a fleet, runs its circuit in a
// cell (scenario/circuit.h) that owns a context of its own and makes it
// current while the circuit is built, around each of its windows and
// while it finalizes, then puts the caller's back. So every circuit has
// its own registry and trace sink, and a caller's context holds after a
// run what it held before; a fleet merges its circuits' registries in
// circuit order (MetricsRegistry::merge_from). Tests install a
// RingBufferSink via the RAII ScopedTraceSink; benches install a JSONL
// sink when NETCO_TRACE_OUT names a file (see trace_sink_from_env()).
#pragma once

#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace netco::obs {

/// The observability context.
struct Observability {
  Tracer tracer;
  MetricsRegistry metrics;
};

/// The calling thread's current context (see file comment).
[[nodiscard]] Observability& global() noexcept;

/// Makes `context` the calling thread's current context; nullptr restores
/// the thread's own. The caller keeps `context` alive while it is current.
void set_current(Observability* context) noexcept;

/// Installs `sink` on the current context's tracer for the current scope,
/// restoring the previous sink (usually none) on destruction.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink) noexcept
      : previous_(global().tracer.sink()) {
    global().tracer.set_sink(&sink);
  }
  ~ScopedTraceSink() { global().tracer.set_sink(previous_); }

  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* previous_;
};

/// Builds a JSONL file sink from the NETCO_TRACE_OUT environment variable;
/// nullptr when the variable is unset (tracing stays disabled). A path
/// that cannot be opened aborts (see JsonlFileSink). The caller owns the
/// sink and must install it on global().tracer.
[[nodiscard]] std::unique_ptr<JsonlFileSink> trace_sink_from_env();

}  // namespace netco::obs
