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

constexpr std::size_t kPatience = TuningSession::kPatience;
constexpr double kEpsilon = TuningSession::kImprovementEpsilon;

/// Reports `cost` `times` times.
void tell_flat(TuningSession& session, double cost, std::size_t times) {
  for (std::size_t i = 0; i < times; ++i) session.tell(cost);
}

TEST(TuningSessionTest, ConvergesAfterPatienceWithoutImprovement) {
  TuningSession session("s", simple_space());
  session.tell(10.0);  // improvement at index 0
  tell_flat(session, 10.0, kPatience - 1);
  EXPECT_FALSE(session.converged_at().has_value());
  session.tell(10.0);  // kPatience-th flat evaluation
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 0u);
}

TEST(TuningSessionTest, ImprovementResetsConvergenceClock) {
  TuningSession session("s", simple_space());
  tell_flat(session, 10.0, 3);
  session.tell(5.0);  // big improvement at index 3
  tell_flat(session, 5.0, kPatience - 1);
  EXPECT_FALSE(session.converged_at().has_value());
  session.tell(5.0);  // kPatience-th flat evaluation after the improvement
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 3u);
}

TEST(TuningSessionTest, TinyImprovementDoesNotReset) {
  TuningSession session("s", simple_space());
  session.tell(100.0);
  // Every later cost improves on 100 by less than kImprovementEpsilon, so
  // none of them resets the clock.
  for (std::size_t i = 1; i <= kPatience; ++i) {
    session.tell(100.0 * (1.0 - kEpsilon * static_cast<double>(i) /
                                    static_cast<double>(kPatience + 1)));
  }
  ASSERT_TRUE(session.converged_at().has_value());
  EXPECT_EQ(*session.converged_at(), 0u);
}

TEST(TuningSessionTest, NegativeCostsHandled) {
  // WIPS are reported as negated costs; relative improvement must work on
  // negative values.
  TuningSession session("s", simple_space());
  session.tell(-100.0);
  session.tell(-110.0);  // 10% better (more negative)
  tell_flat(session, -110.0, kPatience - 1);
  EXPECT_FALSE(session.converged_at().has_value());
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
