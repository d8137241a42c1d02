#include "harmony/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ah::harmony {
namespace {

ParameterSpace box(std::int64_t lo, std::int64_t hi, std::int64_t def,
                   std::size_t dims) {
  ParameterSpace space;
  for (std::size_t d = 0; d < dims; ++d) {
    space.add({"x" + std::to_string(d), lo, hi, def});
  }
  return space;
}

double sphere(const PointI& p, double target = 60.0) {
  double sum = 0;
  for (const auto v : p) {
    const double d = static_cast<double>(v) - target;
    sum += d * d;
  }
  return sum;
}

// -- RandomSearchTuner -------------------------------------------------------

TEST(RandomSearchTest, RejectsEmptySpace) {
  EXPECT_THROW(RandomSearchTuner{ParameterSpace{}}, std::invalid_argument);
}

TEST(RandomSearchTest, FirstAskIsDefault) {
  RandomSearchTuner tuner(box(0, 100, 42, 3));
  EXPECT_EQ(tuner.ask(), (PointI{42, 42, 42}));
}

TEST(RandomSearchTest, ProposalsStayInBounds) {
  RandomSearchTuner tuner(box(-7, 7, 0, 2));
  for (int i = 0; i < 500; ++i) {
    for (const auto v : tuner.ask()) {
      EXPECT_GE(v, -7);
      EXPECT_LE(v, 7);
    }
    tuner.tell(1.0);
  }
  EXPECT_EQ(tuner.evaluations(), 500u);
}

TEST(RandomSearchTest, KeepsBest) {
  RandomSearchTuner tuner(box(0, 1000, 900, 1));
  for (int i = 0; i < 300; ++i) tuner.tell(sphere(tuner.ask(), 200.0));
  // With 300 uniform draws over [0,1000], the best should be within ~50 of
  // the optimum with overwhelming probability.
  EXPECT_NEAR(static_cast<double>(tuner.best()[0]), 200.0, 60.0);
  EXPECT_LE(tuner.best_cost(), sphere({260}, 200.0));
}

TEST(RandomSearchTest, PendingMatchesAsk) {
  RandomSearchTuner tuner(box(0, 10, 5, 2));
  EXPECT_EQ(tuner.pending().size(), 1u);
  EXPECT_EQ(tuner.pending()[0], tuner.ask());
}

// -- CoordinateDescentTuner --------------------------------------------------

TEST(CoordinateDescentTest, FirstProbeIsIncumbentDefault) {
  CoordinateDescentTuner tuner(box(0, 100, 42, 3));
  EXPECT_EQ(tuner.ask(), (PointI{42, 42, 42}));
}

TEST(CoordinateDescentTest, SweepVariesOnlyCurrentDimension) {
  CoordinateDescentTuner tuner(box(0, 100, 50, 3));
  for (const auto& probe : tuner.pending()) {
    EXPECT_EQ(probe[1], 50);
    EXPECT_EQ(probe[2], 50);
  }
}

TEST(CoordinateDescentTest, AdvancesDimensionAfterSweep) {
  CoordinateDescentTuner tuner(box(0, 100, 50, 3));
  EXPECT_EQ(tuner.current_dimension(), 0u);
  const auto batch = tuner.pending();
  for (std::size_t i = 0; i < batch.size(); ++i) tuner.tell(1.0);
  EXPECT_EQ(tuner.current_dimension(), 1u);
}

TEST(CoordinateDescentTest, FixesBestProbe) {
  CoordinateDescentTuner tuner(box(0, 100, 50, 2));
  // Reward dimension-0 = 75 during the first sweep.
  const auto batch = tuner.pending();
  for (const auto& probe : batch) {
    tuner.tell(std::abs(static_cast<double>(probe[0]) - 75.0));
  }
  // All probes of the second sweep should carry the winner in dim 0.
  std::int64_t winner = -1;
  double best = 1e300;
  for (const auto& probe : batch) {
    const double cost = std::abs(static_cast<double>(probe[0]) - 75.0);
    if (cost < best) {
      best = cost;
      winner = probe[0];
    }
  }
  for (const auto& probe : tuner.pending()) {
    EXPECT_EQ(probe[0], winner);
  }
}

TEST(CoordinateDescentTest, RadiusDecaysPerPass) {
  CoordinateDescentTuner tuner(box(0, 1000, 500, 2));
  const double r0 = tuner.radius();
  // Complete one full pass over both dimensions.
  for (int d = 0; d < 2; ++d) {
    const auto batch = tuner.pending();
    for (std::size_t i = 0; i < batch.size(); ++i) tuner.tell(1.0);
  }
  EXPECT_LT(tuner.radius(), r0);
}

TEST(CoordinateDescentTest, RadiusReexpandsAtFloor) {
  using Tuner = CoordinateDescentTuner;
  Tuner tuner(box(0, 1000, 500, 1));
  // Each pass multiplies the radius by kRadiusDecay; the pass that would
  // take it below kMinRadius re-expands it instead.
  double radius = Tuner::kInitialRadius;
  while (radius >= Tuner::kMinRadius) {
    EXPECT_DOUBLE_EQ(tuner.radius(), radius);
    const auto batch = tuner.pending();
    for (std::size_t i = 0; i < batch.size(); ++i) tuner.tell(1.0);
    radius *= Tuner::kRadiusDecay;
  }
  EXPECT_DOUBLE_EQ(tuner.radius(), Tuner::kInitialRadius);
}

TEST(CoordinateDescentTest, ConvergesOnSeparableObjective) {
  CoordinateDescentTuner tuner(box(0, 200, 180, 4));
  for (int i = 0; i < 400; ++i) tuner.tell(sphere(tuner.ask()));
  for (const auto v : tuner.best()) {
    EXPECT_NEAR(static_cast<double>(v), 60.0, 15.0);
  }
}

TEST(CoordinateDescentTest, ProposalsStayInBounds) {
  CoordinateDescentTuner tuner(box(-3, 3, 0, 2));
  common::Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    for (const auto v : tuner.ask()) {
      EXPECT_GE(v, -3);
      EXPECT_LE(v, 3);
    }
    tuner.tell(rng.uniform());
  }
}

TEST(CoordinateDescentTest, DegenerateRangeSurvives) {
  // A fixed parameter ([5,5]) collapses every probe onto the incumbent.
  ParameterSpace space;
  space.add({"fixed", 5, 5, 5});
  space.add({"x", 0, 100, 50});
  CoordinateDescentTuner tuner(std::move(space));
  for (int i = 0; i < 100; ++i) {
    tuner.tell(std::abs(static_cast<double>(tuner.ask()[1]) - 20.0));
  }
  EXPECT_EQ(tuner.best()[0], 5);
  EXPECT_NEAR(static_cast<double>(tuner.best()[1]), 20.0, 15.0);
}

}  // namespace
}  // namespace ah::harmony
