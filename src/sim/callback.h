// Small-buffer-optimized move-only callable for the event loop.
//
// The simulator schedules millions of closures whose captures are a
// handful of words (`this`, a port index, a COW Packet handle — see
// src/net/packet.h). `std::function` heap-allocates most of those and
// requires copyability; Callback stores any nothrow-movable callable up
// to kInlineBytes inline (the simulator keeps it in the event's slot
// record) and falls back to one heap allocation only for oversized
// captures. Together with the generation-slab cancellation scheme in
// simulator.h this makes scheduling an event allocation-free in the
// common case.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace netco::sim {

/// Move-only `void()` callable with inline storage for small captures.
class Callback {
 public:
  /// Inline capture budget. Sized for the hot closures (device pointer +
  /// port index + packet handle ≈ 24 B) with headroom for a few extra
  /// captured words; a `std::function` also still fits inline.
  static constexpr std::size_t kInlineBytes = 48;

  Callback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for
                      // the std::function parameters it replaces
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = heap_ops<Fn>();
    }
  }

  Callback(Callback&& other) noexcept { move_from(std::move(other)); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// False for a default-constructed or moved-from callback.
  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool fits_inline() noexcept {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops = {
        [](void* s) { (*static_cast<Fn*>(s))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* s) { static_cast<Fn*>(s)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops = {
        [](void* s) { (**static_cast<Fn**>(s))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*static_cast<Fn**>(src));  // steal the pointer
        },
        [](void* s) { delete *static_cast<Fn**>(s); },
    };
    return &ops;
  }

  void move_from(Callback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace netco::sim
