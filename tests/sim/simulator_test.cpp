#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace ah::sim {
namespace {

using common::SimTime;

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(SimulatorTest, RunAdvancesClockToEventTimes) {
  Simulator sim;
  SimTime seen = SimTime::zero();
  sim.schedule(SimTime::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::millis(5));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.schedule(SimTime::millis(10), [&] { ++fired; });
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(5));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, EventExactlyAtBoundaryFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimTime::millis(5), [&] { fired = true; });
  sim.run_until(SimTime::millis(5));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(1), [&] {
    order.push_back(1);
    sim.schedule(SimTime::millis(1), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::millis(2));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(SimTime::millis(5), [&] {
    SimTime at = SimTime::zero();
    sim.schedule(SimTime::millis(-10), [&sim, &at] { at = sim.now(); });
    // The inner event must fire at now(), not in the past.
    (void)at;
  });
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

TEST(SimulatorTest, ScheduleAtClampsToNow) {
  Simulator sim;
  SimTime fired_at = SimTime::zero();
  sim.schedule(SimTime::millis(10), [&] {
    sim.schedule_at(SimTime::millis(2), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, SimTime::millis(10));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(SimTime::millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.schedule(SimTime::millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(SimTime::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, RunUntilReturnsEventCount) {
  Simulator sim;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::millis(i), [] {});
  }
  EXPECT_EQ(sim.run_until(SimTime::millis(4)), 4u);
  EXPECT_EQ(sim.run_until(SimTime::millis(100)), 6u);
}

TEST(SimulatorTest, SimultaneousEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.schedule(SimTime::millis(3), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, LongChainTerminates) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 10000) sim.schedule(SimTime::micros(1), [&hop] { hop(); });
  };
  sim.schedule(SimTime::micros(1), [&hop] { hop(); });
  sim.run();
  EXPECT_EQ(hops, 10000);
  EXPECT_EQ(sim.now(), SimTime::micros(10000));
}

TEST(SimulatorTest, ThrowingEventFreesItsSlotAndLaterEventsStillRun) {
  // The exception leaves run_until(); the thrower's slot was freed before
  // its closure ran, so the pending count is exact, the next schedule()
  // reuses that slot, and the next run carries on.  The guard owns
  // nothing: a closure is plain data, so there is nothing to release.
  struct Guard {
    int* runs;
  };
  int guard_runs = 0;
  Simulator sim;
  std::vector<int> order;
  const EventId thrower = sim.schedule(
      SimTime::millis(1), [&order, guard = Guard{&guard_runs}] {
        ++*guard.runs;
        order.push_back(1);
        throw std::runtime_error("event failed");
      });
  sim.schedule(SimTime::millis(2), [&] { order.push_back(2); });
  EXPECT_THROW(sim.run_until(SimTime::millis(10)), std::runtime_error);
  EXPECT_EQ(sim.now(), SimTime::millis(1));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(guard_runs, 1);
  EXPECT_FALSE(sim.cancel(thrower));
  const EventId next =
      sim.schedule(SimTime::millis(1), [&] { order.push_back(3); });
  EXPECT_EQ(static_cast<std::uint32_t>(next),
            static_cast<std::uint32_t>(thrower));
  EXPECT_EQ(sim.run_until(SimTime::millis(10)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsExecutedCountsEveryEventThatRanIncludingAThrower) {
  // Three events run and a fourth throws in one run_until(), then one
  // step() throws: each event that ran is counted when it runs.
  Simulator sim;
  for (int i = 1; i <= 3; ++i) sim.schedule(SimTime::millis(i), [] {});
  sim.schedule(SimTime::millis(4),
               [] { throw std::runtime_error("event failed"); });
  EXPECT_THROW(sim.run_until(SimTime::millis(10)), std::runtime_error);
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);

  sim.schedule(SimTime::millis(1),
               [] { throw std::runtime_error("event failed"); });
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, RunningEventMayCancelItsOwnIdAndSchedule) {
  // A running event's id is retired before its closure runs: cancelling it
  // is a no-op, and what the event schedules gets a new id, even when it
  // lands in the slot the running event vacated.
  Simulator sim;
  std::vector<int> order;
  EventId self = 0;
  self = sim.schedule(SimTime::millis(1), [&] {
    EXPECT_FALSE(sim.cancel(self));
    sim.schedule(SimTime::zero(), [&] { order.push_back(2); });
    order.push_back(1);
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace ah::sim
