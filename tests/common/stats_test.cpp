#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ah::common {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SumMatches) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.sum(), 5050.0, 1e-9);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    left.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    right.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), 2.0);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(EwmaTest, FirstSampleSeeds) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  e.add(10.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_EQ(e.value(), 10.0);
}

TEST(EwmaTest, BlendsTowardNewSamples) {
  Ewma e(0.5);
  e.add(10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 17.5);
}

TEST(EwmaTest, ResetForgets) {
  Ewma e(0.3);
  e.add(5.0);
  e.reset();
  EXPECT_FALSE(e.seeded());
  e.add(7.0);
  EXPECT_EQ(e.value(), 7.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(0.2);
  for (int i = 0; i < 200; ++i) e.add(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

}  // namespace
}  // namespace ah::common
