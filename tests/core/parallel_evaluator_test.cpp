#include "core/parallel_evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/tuning_driver.hpp"
#include "webstack/params.hpp"

namespace ah::core {
namespace {

// Small but non-trivial protocol so determinism failures have room to show
// up (cache warm-up, queueing) while the suite stays fast under TSAN.
Experiment::Config small_experiment() {
  Experiment::Config config;
  config.browsers = 60;
  config.iteration.warmup = common::SimTime::seconds(4.0);
  config.iteration.measure = common::SimTime::seconds(10.0);
  config.iteration.cooldown = common::SimTime::seconds(1.0);
  config.seed = 7;
  return config;
}

// Deterministic in-bounds perturbations of the default configuration.
std::vector<harmony::PointI> candidate_batch(std::size_t n) {
  const auto& catalogue = webstack::parameter_catalogue();
  const harmony::PointI defaults = webstack::default_values();
  std::vector<harmony::PointI> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    harmony::PointI point = defaults;
    const std::size_t d = i % point.size();
    const auto& spec = catalogue[d];
    const std::int64_t step =
        std::max<std::int64_t>(1, (spec.max_value - spec.min_value) / 8);
    point[d] = std::clamp(spec.default_value +
                              static_cast<std::int64_t>(i + 1) * step,
                          spec.min_value, spec.max_value);
    batch.push_back(std::move(point));
  }
  return batch;
}

ParallelEvaluator::ApplyFn apply_all() {
  return [](SystemModel& system, const harmony::PointI& values) {
    system.apply_values_all(values);
  };
}

// Two batches on the same evaluator, so replica state evolution is part of
// what must reproduce.
std::vector<double> evaluate_series(std::size_t threads) {
  common::ThreadPool pool(threads);
  ParallelEvaluator::Options options;
  options.experiment = small_experiment();
  options.replicas = 3;
  ParallelEvaluator evaluator(pool, options);
  const auto batch = candidate_batch(7);
  std::vector<double> wips;
  for (int round = 0; round < 2; ++round) {
    for (const auto& result : evaluator.evaluate(batch, apply_all())) {
      wips.push_back(result.wips);
    }
  }
  return wips;
}

TEST(ParallelEvaluatorTest, WipsBitIdenticalAcrossThreadCounts) {
  const auto one = evaluate_series(1);
  const auto two = evaluate_series(2);
  const auto hardware = evaluate_series(0);  // hardware_concurrency
  ASSERT_EQ(one.size(), 14u);
  // Bit-identical, not approximately equal: scheduling must not leak into
  // the measurements at all.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, hardware);
  for (const double w : one) EXPECT_GT(w, 0.0);
}

TEST(ParallelEvaluatorTest, ResultsComeBackInCandidateOrder) {
  common::ThreadPool pool(2);
  ParallelEvaluator::Options options;
  options.experiment = small_experiment();
  options.replicas = 2;
  ParallelEvaluator evaluator(pool, options);
  const auto batch = candidate_batch(5);
  const auto results = evaluator.evaluate(batch, apply_all());
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(evaluator.evaluations(), 5u);
  for (const auto& result : results) {
    EXPECT_GT(result.wips, 0.0);
    EXPECT_EQ(result.line_wips.size(), 1u);
  }
}

TEST(ParallelEvaluatorTest, ReplicaSeedsAreDistinctAndDeterministic) {
  EXPECT_NE(ParallelEvaluator::replica_seed(2004, 0),
            ParallelEvaluator::replica_seed(2004, 1));
  EXPECT_EQ(ParallelEvaluator::replica_seed(2004, 3),
            ParallelEvaluator::replica_seed(2004, 3));
  // Salted away from the base seed itself (which seeds the live system).
  EXPECT_NE(ParallelEvaluator::replica_seed(2004, 0), 2004u);
}

TEST(ParallelEvaluatorTest, RejectsZeroReplicas) {
  common::ThreadPool pool(1);
  ParallelEvaluator::Options options;
  options.replicas = 0;
  EXPECT_THROW(ParallelEvaluator(pool, options), std::invalid_argument);
}

TuningResult run_duplication(std::size_t threads) {
  sim::Simulator sim;
  SystemModel::Config topology;  // one 1/1/1 work line
  SystemModel system(sim, topology);
  Experiment experiment(system, small_experiment());
  TuningDriver::Options options;
  options.method = TuningMethod::kDuplication;
  options.threads = threads;
  options.replicas = 4;
  TuningDriver driver(system, experiment, options);
  return driver.run(8, /*validation_iterations=*/1);
}

TEST(TuningDriverParallelTest, DuplicationIdenticalAcrossThreadCounts) {
  const auto two = run_duplication(2);
  const auto four = run_duplication(4);
  const auto hardware = run_duplication(0);
  ASSERT_EQ(two.wips_series.size(), 8u);
  EXPECT_EQ(two.wips_series, four.wips_series);
  EXPECT_EQ(two.wips_series, hardware.wips_series);
  EXPECT_EQ(two.best_configuration, four.best_configuration);
  EXPECT_EQ(two.best_configuration, hardware.best_configuration);
  EXPECT_EQ(two.validated_wips, four.validated_wips);
  for (const double w : two.wips_series) EXPECT_GT(w, 0.0);
}

TuningResult run_partitioning(std::size_t threads) {
  SystemModel::Config topology;
  topology.lines = {SystemModel::LineSpec{1, 1, 1},
                    SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(topology);
  Experiment::Config experiment_config = small_experiment();
  experiment_config.browsers = 120;  // 60 per line
  Experiment experiment(system, experiment_config);
  TuningDriver::Options options;
  options.method = TuningMethod::kPartitioning;
  options.threads = threads;
  options.replicas = 3;
  TuningDriver driver(system, experiment, options);
  return driver.run(6, /*validation_iterations=*/0);
}

TEST(TuningDriverParallelTest, PartitioningIdenticalAcrossThreadCounts) {
  const auto two = run_partitioning(2);
  const auto three = run_partitioning(3);
  ASSERT_EQ(two.wips_series.size(), 6u);
  EXPECT_EQ(two.wips_series, three.wips_series);
  EXPECT_EQ(two.best_configuration, three.best_configuration);
  // Concatenated per-line bests: 2 lines x 23 parameters.
  EXPECT_EQ(two.best_configuration.size(),
            2 * webstack::parameter_catalogue().size());
  for (const double w : two.wips_series) EXPECT_GT(w, 0.0);
}

TEST(TuningDriverParallelTest, DefaultMethodRunsParallel) {
  sim::Simulator sim;
  SystemModel::Config topology;
  SystemModel system(sim, topology);
  Experiment experiment(system, small_experiment());
  TuningDriver::Options options;
  options.method = TuningMethod::kDefault;
  options.threads = 2;
  options.replicas = 2;
  TuningDriver driver(system, experiment, options);
  const auto result = driver.run(4, /*validation_iterations=*/0);
  ASSERT_EQ(result.wips_series.size(), 4u);
  for (const double w : result.wips_series) EXPECT_GT(w, 0.0);
  // Concatenated per-node slices over a 1/1/1 line: 7 + 7 + 9 dimensions.
  EXPECT_EQ(result.best_configuration.size(), 23u);
}

TEST(ApplyMethodValuesTest, RejectsLayoutMismatch) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  EXPECT_THROW(apply_method_values(system, TuningMethod::kDuplication,
                                   harmony::PointI(5, 1)),
               std::invalid_argument);
  EXPECT_THROW(apply_method_values(system, TuningMethod::kDefault,
                                   harmony::PointI(7, 1)),
               std::invalid_argument);
  EXPECT_THROW(apply_method_values(system, TuningMethod::kPartitioning,
                                   harmony::PointI(5, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ah::core
