// Heap-allocation counter for the traced run.
//
// alloc_counter.cpp replaces the global operator new/delete for the whole
// benchmark binary. While counting is off (the default, and always during
// the untraced run) an allocation costs one relaxed atomic load on top of
// malloc. While it is on, every allocation bumps a counter owned by the
// allocating thread: each thread claims its own cache-line-sized slot on
// first use, so the fleet's shard workers never contend on one counter.
#pragma once

#include <cstdint>

namespace perfbench {

/// Turns counting on or off for every thread.
void set_alloc_counting(bool on) noexcept;

/// Allocations counted on the calling thread since the process started.
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

/// Allocations counted on every thread, finished ones included. Exact
/// once the threads that allocated have been joined.
[[nodiscard]] std::uint64_t total_allocs() noexcept;

}  // namespace perfbench
