#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kSlots = 256;

/// One counter per thread, padded so neighbours never share a line. Only
/// the owning thread writes its slot; readers sum after joining.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
std::atomic<bool> g_counting{false};

/// Threads past kSlots share the last slot (still correct, only slower).
Slot& my_slot() noexcept {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    const int index = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    slot = &g_slots[index < kSlots ? index : kSlots - 1];
  }
  return *slot;
}

void note_allocation() noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) [[likely]] return;
  my_slot().count.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  note_allocation();
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_allocs() noexcept {
  return my_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t total_allocs() noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
