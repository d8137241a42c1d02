#include "sim/monitor.hpp"

#include <gtest/gtest.h>

namespace ah::sim {
namespace {

using common::SimTime;

static_assert(UtilizationMonitor::kPeriod == SimTime::seconds(5.0),
              "the tests below place tick k at 5k seconds");
static_assert(UtilizationMonitor::kEwmaAlpha == 0.3);

class MonitorTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(MonitorTest, SamplesOnPeriod) {
  UtilizationMonitor monitor(sim_);
  int calls = 0;
  monitor.add_probe("p", [&] {
    ++calls;
    return 0.5;
  });
  sim_.run_until(SimTime::seconds(27.5));
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(monitor.samples_taken(), 5u);
}

TEST_F(MonitorTest, NoSampleBeforeFirstPeriod) {
  // Construction arms the first tick one full period later.
  UtilizationMonitor monitor(sim_);
  monitor.add_probe("p", [] { return 1.0; });
  sim_.run_until(UtilizationMonitor::kPeriod - SimTime::micros(1));
  EXPECT_EQ(monitor.samples_taken(), 0u);
  sim_.run_until(UtilizationMonitor::kPeriod);
  EXPECT_EQ(monitor.samples_taken(), 1u);
}

TEST_F(MonitorTest, DestructionCancelsPendingTick) {
  int calls = 0;
  {
    UtilizationMonitor monitor(sim_);
    monitor.add_probe("p", [&] {
      ++calls;
      return 1.0;
    });
    sim_.run_until(SimTime::seconds(12.5));
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(sim_.pending_events(), 1u);  // the next tick
  }
  EXPECT_EQ(sim_.pending_events(), 0u);
  sim_.run_until(SimTime::seconds(50.0));
  EXPECT_EQ(calls, 2);
}

TEST_F(MonitorTest, SmoothedIsEwma) {
  UtilizationMonitor monitor(sim_);
  double value = 0.0;
  monitor.add_probe("p", [&] { return value; });
  value = 1.0;
  monitor.sample_now();
  EXPECT_DOUBLE_EQ(monitor.smoothed(0), 1.0);  // the first sample seeds it
  value = 0.0;
  monitor.sample_now();
  EXPECT_DOUBLE_EQ(monitor.smoothed(0), 0.7);  // 0.3*0.0 + 0.7*1.0
  EXPECT_DOUBLE_EQ(monitor.last_raw(0), 0.0);
}

TEST_F(MonitorTest, MultipleProbesIndependent) {
  UtilizationMonitor monitor(sim_);
  const auto a = monitor.add_probe("a", [] { return 0.25; });
  const auto b = monitor.add_probe("b", [] { return 0.75; });
  monitor.sample_now();
  EXPECT_DOUBLE_EQ(monitor.smoothed(a), 0.25);
  EXPECT_DOUBLE_EQ(monitor.smoothed(b), 0.75);
  EXPECT_EQ(monitor.probe_name(a), "a");
  EXPECT_EQ(monitor.probe_name(b), "b");
}

TEST_F(MonitorTest, ZeroBeforeFirstSample) {
  UtilizationMonitor monitor(sim_);
  monitor.add_probe("p", [] { return 0.9; });
  EXPECT_EQ(monitor.smoothed(0), 0.0);
  EXPECT_EQ(monitor.last_raw(0), 0.0);
}

TEST_F(MonitorTest, SampleNowInterleavesWithPeriodicSampling) {
  // A forced sample between periodic ticks feeds the same EWMA stream and
  // counts in samples_taken, without disturbing the periodic schedule.
  UtilizationMonitor monitor(sim_);
  double value = 1.0;
  monitor.add_probe("p", [&] { return value; });
  sim_.run_until(SimTime::seconds(7.5));  // one periodic tick: ewma = 1.0
  value = 0.0;
  monitor.sample_now();                   // forced: ewma = 0.7
  EXPECT_EQ(monitor.samples_taken(), 2u);
  EXPECT_DOUBLE_EQ(monitor.smoothed(0), 0.7);
  value = 1.0;
  sim_.run_until(SimTime::seconds(12.5));  // next periodic tick still at 10 s
  EXPECT_EQ(monitor.samples_taken(), 3u);
  EXPECT_DOUBLE_EQ(monitor.smoothed(0), 0.79);  // 0.3*1.0 + 0.7*0.7
}

}  // namespace
}  // namespace ah::sim
