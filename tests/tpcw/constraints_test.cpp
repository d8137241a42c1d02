#include "tpcw/constraints.hpp"

#include <gtest/gtest.h>

namespace ah::tpcw {
namespace {

using common::SimTime;

TEST(WirtLimitsTest, AllInteractionsHavePositiveLimits) {
  for (int i = 0; i < kInteractionCount; ++i) {
    EXPECT_GT(wirt_limit_seconds(static_cast<Interaction>(i)), 0.0);
  }
}

TEST(WirtLimitsTest, SpecSpotChecks) {
  // TPC-W clause 5.5.1.
  EXPECT_DOUBLE_EQ(wirt_limit_seconds(Interaction::kHome), 3.0);
  EXPECT_DOUBLE_EQ(wirt_limit_seconds(Interaction::kBestSellers), 5.0);
  EXPECT_DOUBLE_EQ(wirt_limit_seconds(Interaction::kSearchResults), 10.0);
  EXPECT_DOUBLE_EQ(wirt_limit_seconds(Interaction::kAdminConfirm), 20.0);
}

TEST(WirtTrackerTest, VacuouslyCompliantWithoutSamples) {
  WirtTracker tracker;
  EXPECT_TRUE(tracker.compliant());
  const auto result = tracker.check(Interaction::kHome);
  EXPECT_TRUE(result.compliant);
  EXPECT_EQ(result.samples, 0u);
}

TEST(WirtTrackerTest, CompliantWhenFast) {
  WirtTracker tracker;
  for (int i = 0; i < 100; ++i) {
    tracker.record(Interaction::kHome, SimTime::millis(200));
  }
  const auto result = tracker.check(Interaction::kHome);
  EXPECT_TRUE(result.compliant);
  EXPECT_NEAR(result.p90_seconds, 0.2, 1e-9);
  EXPECT_EQ(result.samples, 100u);
  EXPECT_TRUE(tracker.compliant());
}

TEST(WirtTrackerTest, ViolationDetectedAtP90) {
  WirtTracker tracker;
  // 80% fast, 20% at 8 s: p90 lands in the slow tail, over Home's 3 s.
  for (int i = 0; i < 80; ++i) {
    tracker.record(Interaction::kHome, SimTime::millis(100));
  }
  for (int i = 0; i < 20; ++i) {
    tracker.record(Interaction::kHome, SimTime::seconds(8.0));
  }
  EXPECT_FALSE(tracker.check(Interaction::kHome).compliant);
  EXPECT_FALSE(tracker.compliant());

  // A p90 50 us over Home's 3 s limit shares its histogram bucket with
  // values under the limit; the check reads the bucket's upper bound, so
  // the violation is not rounded away.
  WirtTracker rounded;
  for (int i = 0; i < 90; ++i) {
    rounded.record(Interaction::kHome, SimTime::micros(3'000'050));
  }
  for (int i = 0; i < 10; ++i) {
    rounded.record(Interaction::kHome, SimTime::seconds(10.0));
  }
  const auto result = rounded.check(Interaction::kHome);
  EXPECT_GE(result.p90_seconds, 3.00005);
  EXPECT_FALSE(result.compliant);
}

TEST(WirtTrackerTest, TailBelowTenPercentTolerated) {
  WirtTracker tracker;
  // Only 5% slow: the 90th percentile stays in the fast mass.
  for (int i = 0; i < 95; ++i) {
    tracker.record(Interaction::kHome, SimTime::millis(100));
  }
  for (int i = 0; i < 5; ++i) {
    tracker.record(Interaction::kHome, SimTime::seconds(30.0));
  }
  EXPECT_TRUE(tracker.check(Interaction::kHome).compliant);
}

TEST(WirtTrackerTest, InteractionsIndependent) {
  WirtTracker tracker;
  tracker.record(Interaction::kHome, SimTime::seconds(100.0));
  tracker.record(Interaction::kBestSellers, SimTime::millis(10));
  EXPECT_FALSE(tracker.check(Interaction::kHome).compliant);
  EXPECT_TRUE(tracker.check(Interaction::kBestSellers).compliant);
  EXPECT_EQ(tracker.samples(Interaction::kHome), 1u);
  EXPECT_EQ(tracker.samples(Interaction::kBestSellers), 1u);
  EXPECT_EQ(tracker.samples(Interaction::kBuyConfirm), 0u);
}

TEST(WirtTrackerTest, CheckAllCoversEveryInteraction) {
  WirtTracker tracker;
  const auto results = tracker.check_all();
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kInteractionCount));
}

TEST(WirtTrackerTest, ResetDiscards) {
  WirtTracker tracker;
  tracker.record(Interaction::kHome, SimTime::seconds(100.0));
  tracker.reset();
  EXPECT_TRUE(tracker.compliant());
  EXPECT_EQ(tracker.samples(Interaction::kHome), 0u);
}

TEST(WirtTrackerTest, DifferentLimitsApplied) {
  WirtTracker tracker;
  // 4 s responses: violates Home (3 s) but not Best Sellers (5 s).
  for (int i = 0; i < 10; ++i) {
    tracker.record(Interaction::kHome, SimTime::seconds(4.0));
    tracker.record(Interaction::kBestSellers, SimTime::seconds(4.0));
  }
  EXPECT_FALSE(tracker.check(Interaction::kHome).compliant);
  EXPECT_TRUE(tracker.check(Interaction::kBestSellers).compliant);
}

}  // namespace
}  // namespace ah::tpcw
