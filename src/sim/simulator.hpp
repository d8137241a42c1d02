// Discrete-event simulation engine.
//
// Single-threaded by design: one Simulator instance owns one virtual
// timeline.  Parallelism in this project comes from running *independent*
// Simulator instances concurrently (one per candidate configuration or work
// line), never from sharing one timeline across threads.
#pragma once

#include <cstdint>

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
  /// (an event can never fire in the past).
  EventId schedule(common::SimTime delay, EventFn fn);

  /// Schedules `fn` at the absolute time `at` (clamped to now).
  EventId schedule_at(common::SimTime at, EventFn fn);

  /// Cancels a pending event; no-op for fired/unknown ids.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue drains or virtual time would pass `until`.
  /// Events at exactly `until` DO fire.  Afterwards now() == min(until,
  /// drain time).  Returns the number of events executed.
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
