#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace netco::sim {

namespace {

/// Compaction engages only past this raw heap size: small queues purge
/// their tombstones lazily at pop for free, and a fixed floor keeps the
/// amortized analysis trivial (a compaction of n entries is paid for by
/// the >= n/2 cancellations that triggered it).
constexpr std::size_t kCompactionFloor = 64;

}  // namespace

void EventHandle::cancel() noexcept {
  if (auto slab = slab_.lock()) {
    NETCO_DASSERT(slab->owned_by_caller());
    // The slot itself stays reserved until the tombstone pops; only the
    // liveness accounting changes here.
    if (slab->invalidate(slot_, generation_)) --slab->live;
  }
}

bool EventHandle::pending() const noexcept {
  const auto slab = slab_.lock();
  if (slab == nullptr) return false;
  NETCO_DASSERT(slab->owned_by_caller());
  return slab->matches(slot_, generation_);
}

Simulator::Simulator(std::uint64_t seed)
    : slab_(std::make_shared<detail::CancelSlab>()), rng_(seed) {}

EventHandle Simulator::schedule_at(TimePoint at, Callback fn) {
  NETCO_ASSERT_MSG(at >= now_, "cannot schedule events in the past");
  NETCO_ASSERT(static_cast<bool>(fn));
  detail::CancelSlab& slab = *slab_;
  // Cancel-heavy workloads (probe churn, failover rewires) retire events
  // faster than they pop: purge the debt once tombstones outnumber live
  // events, so the raw heap stays within 2x the live population (plus the
  // floor) no matter how hot the cancellation path runs.
  if (queue_.size() >= kCompactionFloor &&
      queue_.size() - slab.live > slab.live) {
    compact();
  }
  const std::uint32_t slot = slab.acquire();
  detail::CancelSlab::Record& record = slab.records[slot];
  record.armed = record.generation;
  record.fn = std::move(fn);
  ++slab.live;
  queue_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return EventHandle{slab_, slot, record.generation};
}

EventHandle Simulator::schedule_after(Duration delay, Callback fn) {
  NETCO_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::compact() {
  detail::CancelSlab& slab = *slab_;
  const auto keep_end =
      std::remove_if(queue_.begin(), queue_.end(), [&slab](const Key& key) {
        if (!slab.cancelled(key.slot)) return false;
        slab.release(key.slot);
        return true;
      });
  queue_.erase(keep_end, queue_.end());
  // (at, seq) is a total order, so the heap rebuild cannot perturb pop
  // order: runs stay bit-identical to the lazy-purge-only build.
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  ++compactions_;
}

bool Simulator::step(TimePoint deadline) {
  detail::CancelSlab& slab = *slab_;
  while (!queue_.empty()) {
    const Key top = queue_.front();
    if (slab.cancelled(top.slot)) {
      // Tombstone: cancelled while queued. Purge regardless of deadline —
      // it will never run, and draining the run now keeps the queue lean.
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      queue_.pop_back();
      slab.release(top.slot);
      continue;
    }
    if (top.at > deadline) return false;
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    // Move the callback out before running: it may schedule more events
    // and reallocate the records.
    detail::CancelSlab::Record& record = slab.records[top.slot];
    Callback fn = std::move(record.fn);
    // Fired: handles must stop reporting pending, and the slot recycles.
    ++record.generation;
    slab.release(top.slot);
    --slab.live;
    now_ = top.at;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

void Simulator::run() {
  NETCO_DASSERT(slab_->owned_by_caller());
  stopped_ = false;
  while (!stopped_ && step(TimePoint::from_ns(INT64_MAX))) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  NETCO_ASSERT(deadline >= now_);
  NETCO_DASSERT(slab_->owned_by_caller());
  stopped_ = false;
  while (!stopped_ && step(deadline)) {
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace netco::sim
