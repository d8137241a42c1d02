// Discrete-event simulation engine.
//
// Single-threaded by design: one Simulator instance owns one virtual
// timeline.  Parallelism in this project comes from running *independent*
// Simulator instances concurrently (one per candidate configuration or work
// line), never from sharing one timeline across threads.
//
// run_until() and step() advance the clock to the next event's time, free
// its slot and run a copy of its closure (EventFn is plain data, see
// EventQueue).  A closure that throws leaves the queue consistent: the
// exception leaves run_until() or step(), and the next call carries on with
// the next event.  A running event may schedule new events and cancel any
// event, its own id included (a no-op: that id is retired before the
// closure runs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/analysis.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] common::SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after now.  Negative delays clamp to now
  /// (an event can never fire in the past).  A capture that EventFn cannot
  /// hold (larger than its buffer, or not trivially copyable) is a compile
  /// error.
  template <typename F>
  EventId schedule(common::SimTime delay, F&& fn) {
    return schedule_at(now_ + std::max(delay, common::SimTime::zero()),
                       std::forward<F>(fn));
  }

  /// Schedules `fn` at the absolute time `at` (clamped to now).
  template <typename F>
  EventId schedule_at(common::SimTime at, F&& fn) {
    return queue_.push(std::max(at, now_), std::forward<F>(fn));
  }

  /// Cancels a pending event; no-op for fired/unknown ids.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue drains or virtual time would pass `until`.
  /// Events at exactly `until` DO fire.  Afterwards now() == max(until,
  /// now() before the call), even when the queue drained early.  Returns
  /// the number of events executed.
  std::uint64_t run_until(common::SimTime until);

  /// Runs until the event queue is empty.
  std::uint64_t run();

  /// Executes at most one event.  Returns false when none remain.
  bool step();

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Events the queue physically holds.  Cancellation frees a slot at once
  /// (see EventQueue), so this always equals pending_events(); it stays as
  /// the scheduler's storage reading for telemetry.
  [[nodiscard]] std::size_t stored_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  common::SimTime now_ = common::SimTime::zero();
  std::uint64_t executed_ = 0;
};

}  // namespace ah::sim
