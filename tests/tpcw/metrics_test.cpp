#include "tpcw/metrics.hpp"

#include <gtest/gtest.h>

namespace ah::tpcw {
namespace {

using common::SimTime;

TEST(WipsMeterTest, CountsInsideWindowOnly) {
  WipsMeter meter;
  meter.arm(SimTime::seconds(10.0), SimTime::seconds(20.0));
  EXPECT_FALSE(meter.record(true, true, SimTime::seconds(5.0),
                            SimTime::millis(10)));
  EXPECT_TRUE(meter.record(true, true, SimTime::seconds(15.0),
                           SimTime::millis(10)));
  EXPECT_FALSE(meter.record(true, true, SimTime::seconds(25.0),
                            SimTime::millis(10)));
  EXPECT_EQ(meter.completed_ok(), 1u);
}

TEST(WipsMeterTest, WindowBoundariesHalfOpen) {
  WipsMeter meter;
  meter.arm(SimTime::seconds(10.0), SimTime::seconds(20.0));
  EXPECT_TRUE(
      meter.record(true, false, SimTime::seconds(10.0), SimTime::zero()));
  EXPECT_FALSE(
      meter.record(true, false, SimTime::seconds(20.0), SimTime::zero()));
  EXPECT_EQ(meter.completed_ok(), 1u);
}

TEST(WipsMeterTest, WipsIsRatePerSecond) {
  WipsMeter meter;
  meter.arm(SimTime::zero(), SimTime::seconds(10.0));
  for (int i = 0; i < 50; ++i) {
    meter.record(true, i % 2 == 0, SimTime::seconds(0.1 * i),
                 SimTime::millis(5));
  }
  EXPECT_NEAR(meter.wips(), 5.0, 1e-9);
}

TEST(WipsMeterTest, BrowseOrderSplit) {
  WipsMeter meter;
  meter.arm(SimTime::zero(), SimTime::seconds(10.0));
  for (int i = 0; i < 30; ++i) {
    meter.record(true, true, SimTime::seconds(0.1), SimTime::zero());
  }
  for (int i = 0; i < 10; ++i) {
    meter.record(true, false, SimTime::seconds(0.1), SimTime::zero());
  }
  EXPECT_NEAR(meter.wips_browse(), 3.0, 1e-9);
  EXPECT_NEAR(meter.wips_order(), 1.0, 1e-9);
  EXPECT_NEAR(meter.wips(), 4.0, 1e-9);
}

TEST(WipsMeterTest, ErrorsCountedSeparately) {
  WipsMeter meter;
  meter.arm(SimTime::zero(), SimTime::seconds(10.0));
  meter.record(true, true, SimTime::seconds(1.0), SimTime::zero());
  meter.record(false, true, SimTime::seconds(1.0), SimTime::zero());
  // An in-window failure is counted too, so it reports in-window.
  EXPECT_TRUE(
      meter.record(false, true, SimTime::seconds(1.0), SimTime::zero()));
  EXPECT_EQ(meter.completed_ok(), 1u);
  EXPECT_EQ(meter.errors(), 2u);
  EXPECT_NEAR(meter.error_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(WipsMeterTest, LatencyStatsOverOkOnly) {
  WipsMeter meter;
  meter.arm(SimTime::zero(), SimTime::seconds(10.0));
  meter.record(true, true, SimTime::seconds(1.0), SimTime::millis(100));
  meter.record(true, true, SimTime::seconds(1.0), SimTime::millis(200));
  meter.record(false, true, SimTime::seconds(1.0), SimTime::millis(900));
  EXPECT_EQ(meter.latency_histogram().count(), 2u);
  EXPECT_NEAR(meter.latency_histogram().mean_us(), 150'000.0, 1e-9);
}

TEST(WipsMeterTest, RearmResets) {
  WipsMeter meter;
  meter.arm(SimTime::zero(), SimTime::seconds(10.0));
  meter.record(true, true, SimTime::seconds(1.0), SimTime::millis(10));
  meter.arm(SimTime::seconds(20.0), SimTime::seconds(30.0));
  EXPECT_EQ(meter.completed_ok(), 0u);
  EXPECT_EQ(meter.errors(), 0u);
  EXPECT_EQ(meter.latency_histogram().count(), 0u);
  EXPECT_EQ(meter.window_start(), SimTime::seconds(20.0));
  EXPECT_EQ(meter.window_end(), SimTime::seconds(30.0));
}

TEST(WipsMeterTest, EmptyWindowSafe) {
  WipsMeter meter;
  EXPECT_EQ(meter.wips(), 0.0);
  EXPECT_EQ(meter.error_ratio(), 0.0);
}

}  // namespace
}  // namespace ah::tpcw
