#include "harmony/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"

namespace ah::harmony {
namespace {

using Objective = std::function<double(const PointI&)>;

/// Drives a tuner against an objective for a number of evaluations.
void drive(SimplexTuner& tuner, const Objective& objective,
           std::size_t evaluations) {
  for (std::size_t i = 0; i < evaluations; ++i) {
    tuner.tell(objective(tuner.ask()));
  }
}

ParameterSpace box(std::int64_t lo, std::int64_t hi, std::int64_t def,
                   std::size_t dims) {
  ParameterSpace space;
  for (std::size_t d = 0; d < dims; ++d) {
    space.add({"x" + std::to_string(d), lo, hi, def});
  }
  return space;
}

TEST(SimplexTunerTest, RejectsEmptySpace) {
  EXPECT_THROW(SimplexTuner tuner{ParameterSpace{}}, std::invalid_argument);
}

TEST(SimplexTunerTest, InitialBatchIsDimensionPlusOne) {
  SimplexTuner tuner(box(0, 100, 50, 4));
  EXPECT_EQ(tuner.pending().size(), 5u);
  EXPECT_EQ(tuner.phase(), SimplexTuner::Phase::kInit);
}

TEST(SimplexTunerTest, FirstAskIsDefaultConfiguration) {
  SimplexTuner tuner(box(0, 100, 50, 3));
  EXPECT_EQ(tuner.ask(), (PointI{50, 50, 50}));
}

TEST(SimplexTunerTest, InitialVerticesPerturbOneDimensionEach) {
  SimplexTuner tuner(box(0, 100, 50, 3));
  const auto pending = tuner.pending();
  ASSERT_EQ(pending.size(), 4u);
  for (std::size_t v = 1; v < pending.size(); ++v) {
    int changed = 0;
    for (std::size_t d = 0; d < 3; ++d) {
      if (pending[v][d] != 50) ++changed;
    }
    EXPECT_EQ(changed, 1);
  }
}

TEST(SimplexTunerTest, PerturbationFlipsAtUpperBound) {
  // Default at the max: the offset must go downward to stay in bounds.
  ParameterSpace space;
  space.add({"x", 0, 100, 100});
  SimplexTuner tuner(space);
  const auto pending = tuner.pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_LT(pending[1][0], 100);
}

TEST(SimplexTunerTest, AllProposalsStayInBounds) {
  SimplexTuner tuner(box(-10, 10, 0, 3));
  common::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const PointI p = tuner.ask();
    for (std::size_t d = 0; d < p.size(); ++d) {
      EXPECT_GE(p[d], -10);
      EXPECT_LE(p[d], 10);
    }
    tuner.tell(rng.uniform());  // adversarial noise objective
  }
}

TEST(SimplexTunerTest, ConvergesOnQuadratic1D) {
  ParameterSpace space;
  space.add({"x", 0, 1000, 900});
  SimplexTuner tuner(std::move(space));
  drive(tuner, [](const PointI& p) {
    const double d = static_cast<double>(p[0]) - 300.0;
    return d * d;
  }, 120);
  EXPECT_NEAR(static_cast<double>(tuner.best()[0]), 300.0, 10.0);
}

TEST(SimplexTunerTest, ConvergesOnSphere3D) {
  SimplexTuner tuner(box(-500, 500, 400, 3));
  drive(tuner, [](const PointI& p) {
    double sum = 0.0;
    for (const auto v : p) {
      const double d = static_cast<double>(v) - 100.0;
      sum += d * d;
    }
    return sum;
  }, 400);
  for (const auto v : tuner.best()) {
    EXPECT_NEAR(static_cast<double>(v), 100.0, 40.0);
  }
}

TEST(SimplexTunerTest, HandlesRosenbrockWithoutDiverging) {
  SimplexTuner tuner(box(-200, 200, -150, 2));
  drive(tuner, [](const PointI& p) {
    const double x = static_cast<double>(p[0]) / 100.0;
    const double y = static_cast<double>(p[1]) / 100.0;
    return 100.0 * (y - x * x) * (y - x * x) + (1.0 - x) * (1.0 - x);
  }, 500);
  // Optimum at (100, 100) in lattice units; Rosenbrock is hard, accept the
  // valley floor.
  const double x = static_cast<double>(tuner.best()[0]) / 100.0;
  const double y = static_cast<double>(tuner.best()[1]) / 100.0;
  const double value =
      100.0 * (y - x * x) * (y - x * x) + (1.0 - x) * (1.0 - x);
  EXPECT_LT(value, 1.0);
}

TEST(SimplexTunerTest, BestNeverWorsens) {
  SimplexTuner tuner(box(0, 100, 50, 4));
  common::Rng rng(9);
  double best = 1e300;
  for (int i = 0; i < 200; ++i) {
    const PointI p = tuner.ask();
    double cost = 0;
    for (const auto v : p) cost += std::abs(static_cast<double>(v) - 70.0);
    cost += rng.uniform() * 3.0;  // noise
    tuner.tell(cost);
    best = std::min(best, cost);
    EXPECT_DOUBLE_EQ(tuner.best_cost(), best);
  }
}

TEST(SimplexTunerTest, EvaluationCountTracksTells) {
  SimplexTuner tuner(box(0, 10, 5, 2));
  EXPECT_EQ(tuner.evaluations(), 0u);
  tuner.tell(1.0);
  tuner.tell(2.0);
  EXPECT_EQ(tuner.evaluations(), 2u);
}

TEST(SimplexTunerTest, ShrinkProducesBatch) {
  // Force repeated contraction failures with an adversarial objective that
  // punishes every non-vertex point, eventually triggering a shrink whose
  // pending batch has n points.
  SimplexTuner tuner(box(0, 1000, 500, 3));
  int iterations = 0;
  bool saw_shrink_batch = false;
  common::Rng rng(2);
  while (iterations < 500 && !saw_shrink_batch) {
    const auto pending = tuner.pending();
    if (tuner.phase() == SimplexTuner::Phase::kShrink) {
      EXPECT_EQ(pending.size(), 3u);
      saw_shrink_batch = true;
      break;
    }
    tuner.tell(rng.uniform(0.0, 100.0));
    ++iterations;
  }
  EXPECT_TRUE(saw_shrink_batch);
}

TEST(SimplexTunerTest, DiameterShrinksOnConvergence) {
  SimplexTuner tuner(box(0, 1000, 800, 2));
  auto objective = [](const PointI& p) {
    double sum = 0;
    for (const auto v : p) {
      sum += (static_cast<double>(v) - 200.0) * (static_cast<double>(v) - 200.0);
    }
    return sum;
  };
  drive(tuner, objective, 30);
  const double early = tuner.diameter();
  drive(tuner, objective, 300);
  EXPECT_LT(tuner.diameter(), early);
}

TEST(SimplexTunerTest, DampExtremesKeepsProposalsOffBounds) {
  SimplexOptions options;
  options.damp_extremes = true;
  SimplexTuner tuner(box(0, 100, 50, 2), options);
  // Objective that pulls hard toward +infinity on dim 0 (best at bound).
  int at_bound = 0;
  for (int i = 0; i < 150; ++i) {
    const PointI p = tuner.ask();
    if (p[0] == 100) ++at_bound;
    tuner.tell(-static_cast<double>(p[0]));
  }
  // Damping lets the simplex approach but discourages jumping straight to
  // the boundary; undamped search hits the bound far more often.
  SimplexTuner undamped(box(0, 100, 50, 2));
  int undamped_at_bound = 0;
  for (int i = 0; i < 150; ++i) {
    const PointI p = undamped.ask();
    if (p[0] == 100) ++undamped_at_bound;
    undamped.tell(-static_cast<double>(p[0]));
  }
  EXPECT_LE(at_bound, undamped_at_bound);
}

TEST(SimplexTunerTest, SingleStepRangeParameterWorks) {
  // A [0,1] boolean-like parameter must not break the geometry.
  ParameterSpace space;
  space.add({"flag", 0, 1, 0});
  space.add({"x", 0, 100, 50});
  SimplexTuner tuner(std::move(space));
  drive(tuner, [](const PointI& p) {
    return static_cast<double>(p[0]) * 100.0 +
           std::abs(static_cast<double>(p[1]) - 20.0);
  }, 100);
  EXPECT_EQ(tuner.best()[0], 0);
  EXPECT_NEAR(static_cast<double>(tuner.best()[1]), 20.0, 10.0);
}

// Property sweep: convergence on shifted quadratics across dimensions.
class SimplexDimensionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDimensionSweep, FindsInteriorOptimum) {
  const int dims = GetParam();
  auto objective = [](const PointI& p) {
    double sum = 0;
    for (const auto v : p) {
      const double d = static_cast<double>(v) - 60.0;
      sum += d * d;
    }
    return sum;
  };
  SimplexTuner tuner(box(0, 200, 180, static_cast<std::size_t>(dims)));
  const double initial_cost =
      objective(PointI(static_cast<std::size_t>(dims), 180));
  drive(tuner, objective, 150 * static_cast<std::size_t>(dims));
  if (dims <= 8) {
    // Low dimensions: the simplex should land near the optimum.
    double err = 0;
    for (const auto v : tuner.best()) {
      err = std::max(err, std::abs(static_cast<double>(v) - 60.0));
    }
    EXPECT_LT(err, 45.0) << "dims=" << dims;
  } else {
    // High dimensions: Nelder-Mead converges slowly (which is exactly why
    // the paper needs parameter duplication/partitioning); require a
    // substantial cost reduction rather than proximity.
    EXPECT_LT(tuner.best_cost(), initial_cost * 0.5) << "dims=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SimplexDimensionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 23));

}  // namespace
}  // namespace ah::harmony
