// Counted slot pool with FIFO waiting and bounded accept queue.
//
// Complements sim::Resource: a Resource serves jobs whose duration is known
// at submit time (CPU bursts, disk transfers), while a SlotPool hands out
// slots that the holder releases explicitly — the right shape for connector
// thread pools and database connection slots, where a thread is held across
// arbitrary downstream waits.  `acceptCount`-style admission control falls
// out of the bounded waiter queue.
#pragma once

#include <cstdint>
#include <string>

#include "common/analysis.hpp"
#include "common/ring_buffer.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

class SlotPool {
 public:
  /// Grant callback.  Aliased to the simulator's event type so grant_next()
  /// can hand a queued waiter straight to sim_.schedule() without
  /// re-wrapping it in another closure (which would overflow the event's
  /// 32-byte buffer).
  using Granted = EventFn;

  struct Config {
    int slots = 1;
    /// Waiters admitted beyond the slots in use; acquire() past this fails.
    std::size_t queue_capacity = static_cast<std::size_t>(-1);
  };

  SlotPool(Simulator& sim, std::string name, Config config);

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /// Requests a slot.  Returns false (rejection) when all slots are taken
  /// and the waiting queue is full; otherwise `on_granted` fires exactly
  /// once — immediately (synchronously) when a slot is free, or later in
  /// FIFO order.  Every grant must be paired with one release().
  bool acquire(Granted on_granted);

  /// Returns a slot; the longest-waiting acquirer (if any) is granted via a
  /// zero-delay event so grant callbacks never run inside release().
  void release();

  /// Re-sizes the pool.  Growth admits waiters immediately; on shrink,
  /// excess holders finish naturally and capacity drops as they release.
  void set_slots(int slots);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int slots() const { return config_.slots; }
  [[nodiscard]] int in_use() const { return in_use_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }

  [[nodiscard]] std::uint64_t granted() const { return granted_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

  /// Highest simultaneous in_use observed (drives thread-spawn modelling).
  [[nodiscard]] int peak_in_use() const { return peak_in_use_; }
  void reset_peak() { peak_in_use_ = in_use_; }

  /// Integral of slots-in-use over time (slot·µs); see Resource::busy_integral.
  [[nodiscard]] std::int64_t busy_integral() const;
  [[nodiscard]] double utilization_since(std::int64_t integral_at_t0,
                                         common::SimTime t0) const;

  /// Drops all waiters (they are counted as rejected, their callbacks never
  /// fire).  Used on server restart.  Returns the number dropped.
  std::size_t clear_waiters();

 private:
  void account_now();
  void grant_next();

  Simulator& sim_;
  std::string name_;
  Config config_;

  int in_use_ = 0;
  int peak_in_use_ = 0;
  common::RingBuffer<Granted> waiters_;

  std::uint64_t granted_ = 0;
  std::uint64_t rejected_ = 0;

  mutable std::int64_t busy_integral_ = 0;
  mutable common::SimTime last_account_ = common::SimTime::zero();
};

}  // namespace ah::sim
