// End-to-end integration tests: full system + workload + Harmony tuning,
// asserting the paper's qualitative claims on a reduced scale.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"

namespace ah::core {
namespace {

using common::SimTime;

Experiment::Config reduced(tpcw::WorkloadKind workload, int browsers = 530) {
  Experiment::Config config;
  config.browsers = browsers;
  config.workload = workload;
  config.iteration.warmup = SimTime::seconds(10.0);
  config.iteration.measure = SimTime::seconds(40.0);
  config.iteration.cooldown = SimTime::seconds(2.0);
  return config;
}

double default_config_wips(tpcw::WorkloadKind workload) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, reduced(workload));
  experiment.run_iteration();
  experiment.run_iteration();
  return experiment.run_iteration().wips;
}

TEST(IntegrationTest, TuningImprovesBrowsingWorkload) {
  const double baseline = default_config_wips(tpcw::WorkloadKind::kBrowsing);

  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, reduced(tpcw::WorkloadKind::kBrowsing));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const auto result = driver.run(80);
  EXPECT_GT(result.validated_wips, baseline * 1.05)
      << "Harmony must find >5% on the browsing mix";
}

TEST(IntegrationTest, TunedConfigurationSustainsImprovement) {
  const double baseline = default_config_wips(tpcw::WorkloadKind::kBrowsing);

  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, reduced(tpcw::WorkloadKind::kBrowsing));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const auto result = driver.run(80);

  // Re-apply the best configuration and measure steady state.
  driver.apply_configuration(result.best_configuration);
  experiment.run_iteration();
  const double tuned = experiment.run_iteration().wips;
  EXPECT_GT(tuned, baseline * 1.03);
}

TEST(IntegrationTest, SecondHundredIterationsMostlyBeatDefault) {
  // Paper §III.A: "the performance of 78% of the iterations is better than
  // the default configuration" (browsing).  We assert a majority on a
  // shorter run.
  const double baseline = default_config_wips(tpcw::WorkloadKind::kBrowsing);

  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, reduced(tpcw::WorkloadKind::kBrowsing));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const auto result = driver.run(90);
  int better = 0;
  int total = 0;
  for (std::size_t i = 45; i < result.wips_series.size(); ++i) {
    if (result.wips_series[i] > baseline) ++better;
    ++total;
  }
  EXPECT_GT(static_cast<double>(better) / total, 0.5);
}

TEST(IntegrationTest, PartitionedLinesTuneIndependently) {
  SystemModel::Config system_config;
  system_config.lines = {SystemModel::LineSpec{1, 1, 1},
                         SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(system_config);
  Experiment experiment(system,
                        reduced(tpcw::WorkloadKind::kBrowsing, 1060));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kPartitioning});
  const auto result = driver.run(30);
  EXPECT_EQ(driver.server().evaluations(0), 30u);
  EXPECT_EQ(driver.server().evaluations(1), 30u);
  EXPECT_GT(result.best_wips, 0.0);
}

TEST(IntegrationTest, SystemSurvivesExtremeConfigurations) {
  // Robustness: the simulation must not wedge or crash under boundary
  // values (max threads, minimal buffers, tiny caches).
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, reduced(tpcw::WorkloadKind::kOrdering, 300));

  std::vector<std::int64_t> extreme;
  for (const auto& spec : webstack::parameter_catalogue()) {
    extreme.push_back(spec.max_value);
  }
  system.apply_values_all(extreme);
  const auto high = experiment.run_iteration();
  EXPECT_GE(high.wips, 0.0);

  extreme.clear();
  for (const auto& spec : webstack::parameter_catalogue()) {
    extreme.push_back(spec.min_value);
  }
  system.apply_values_all(extreme);
  const auto low = experiment.run_iteration();
  EXPECT_GE(low.wips, 0.0);
}

TEST(IntegrationTest, ExtremeValuesUnderperformTuned) {
  // The paper observes that configurations with extreme values usually
  // perform poorly; maximal everything overcommits node memory.
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, reduced(tpcw::WorkloadKind::kShopping));

  experiment.run_iteration();
  const double sane = experiment.run_iteration().wips;

  std::vector<std::int64_t> extreme;
  for (const auto& spec : webstack::parameter_catalogue()) {
    extreme.push_back(spec.max_value);
  }
  system.apply_values_all(extreme);
  experiment.run_iteration();
  const double maxed = experiment.run_iteration().wips;
  EXPECT_LT(maxed, sane);
}

}  // namespace
}  // namespace ah::core
