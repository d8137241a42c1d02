// Free-list object pool with stable addresses.
//
// The request hot path parks per-request continuation state (the captured
// `done` callbacks plus the request itself) in pooled structs so that the
// closures threaded through the event queue only carry a single pointer and
// always fit an InlineFunction's inline buffer.  A pool slot is acquired at
// request admission and released when the response callback fires; after
// warm-up the pool reaches the peak concurrency of the server and the
// steady-state request path performs no heap allocations at all.
//
// Addresses are stable (deque-backed), so a T* stays valid across later
// acquires.  Slots are NOT reset between uses: the caller overwrites the
// fields it needs.  The pooled calls are plain data (AH_ASSERT_POOLED_CALL,
// common/analysis.hpp), so a released slot holds nothing to release.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/analysis.hpp"

// acquire()/release() run once per request hop; the pool exists so the rest
// of the hot path never allocates.
AH_HOT_PATH_FILE;

namespace ah::common {

template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Returns a slot, reusing a released one when available.  The slot keeps
  /// whatever state its previous user left behind.
  [[nodiscard]] T* acquire() {
    if (free_.empty()) return &items_.emplace_back();
    T* slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Returns `slot` to the free list.  Must have come from this pool's
  /// acquire(), and must not be released twice.
  void release(T* slot) { free_.push_back(slot); }

  /// Pre-creates slots so even the first requests allocate nothing.
  void reserve(std::size_t n) {
    while (items_.size() < n) free_.push_back(&items_.emplace_back());
  }

  /// Total slots ever created (== peak outstanding + available).
  [[nodiscard]] std::size_t created() const { return items_.size(); }
  [[nodiscard]] std::size_t available() const { return free_.size(); }
  [[nodiscard]] std::size_t outstanding() const {
    return items_.size() - free_.size();
  }

 private:
  // The pool's own backing store; growth stops once warm-up reaches peak
  // concurrency, so the steady state allocates nothing.
  AH_LINT_ALLOW(pooling, "backing store: deque growth never moves slots");
  std::deque<T> items_;   // deque: growth never moves existing slots
  std::vector<T*> free_;
};

}  // namespace ah::common
