#include "harmony/session.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ah::harmony {
namespace {

ParameterSpace simple_space() {
  return ParameterSpace{{{"x", 0, 100, 50}, {"y", 0, 100, 50}}};
}

TEST(TuningSessionTest, RecordsHistory) {
  TuningSession session("s", simple_space());
  session.tell(3.0);
  session.tell(1.0);
  ASSERT_EQ(session.history().size(), 2u);
  EXPECT_EQ(session.history()[0].cost, 3.0);
  EXPECT_EQ(session.history()[1].cost, 1.0);
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(TuningSessionTest, HistoryConfigurationsMatchAsked) {
  TuningSession session("s", simple_space());
  const PointI asked = session.ask();
  session.tell(5.0);
  EXPECT_EQ(session.history()[0].configuration, asked);
}

TEST(TuningSessionTest, BestTracksMinimum) {
  TuningSession session("s", simple_space());
  session.tell(3.0);
  session.tell(1.0);
  session.tell(2.0);
  EXPECT_EQ(session.best_cost(), 1.0);
}

TEST(TuningSessionTest, NotConvergedInitially) {
  TuningSession session("s", simple_space());
  EXPECT_FALSE(session.converged_at().has_value());
  session.tell(1.0);
  EXPECT_FALSE(session.converged_at().has_value());
}

TEST(TuningSessionTest, ConvergesAfterPatienceWithoutImprovement) {
  SessionOptions options;
  options.patience = 5;
  TuningSession session("s", simple_space(), options);
  session.tell(10.0);  // improvement at index 0
  for (int i = 0; i < 5; ++i) session.tell(10.0);  // flat
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 0u);
}

TEST(TuningSessionTest, ImprovementResetsConvergenceClock) {
  SessionOptions options;
  options.patience = 4;
  options.improvement_epsilon = 0.01;
  TuningSession session("s", simple_space(), options);
  session.tell(10.0);
  session.tell(10.0);
  session.tell(10.0);
  session.tell(5.0);  // big improvement at index 3
  session.tell(5.0);
  EXPECT_FALSE(session.converged_at().has_value());
  session.tell(5.0);
  session.tell(5.0);
  session.tell(5.0);  // 4th flat evaluation after the improvement
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 3u);
}

TEST(TuningSessionTest, TinyImprovementDoesNotReset) {
  SessionOptions options;
  options.patience = 3;
  options.improvement_epsilon = 0.05;  // 5% required
  TuningSession session("s", simple_space(), options);
  session.tell(100.0);
  session.tell(99.0);  // 1% — below epsilon
  session.tell(98.5);
  session.tell(98.4);
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 0u);
}

TEST(TuningSessionTest, NegativeCostsHandled) {
  // WIPS are reported as negated costs; relative improvement must work on
  // negative values.
  SessionOptions options;
  options.patience = 3;
  TuningSession session("s", simple_space(), options);
  session.tell(-100.0);
  session.tell(-110.0);  // 10% better (more negative)
  EXPECT_FALSE(session.converged_at().has_value());
  session.tell(-110.0);
  session.tell(-110.0);
  session.tell(-110.0);
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 1u);
}

TEST(TuningSessionTest, NamePreserved) {
  TuningSession session("my-session", simple_space());
  EXPECT_EQ(session.name(), "my-session");
}

}  // namespace
}  // namespace ah::harmony
