#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace ah::core {
namespace {

using common::SimTime;

Experiment::Config fast_config(int browsers = 120) {
  Experiment::Config config;
  config.browsers = browsers;
  config.iteration.warmup = SimTime::seconds(5.0);
  config.iteration.measure = SimTime::seconds(20.0);
  config.iteration.cooldown = SimTime::seconds(2.0);
  return config;
}

TEST(ExperimentTest, IterationAdvancesSimulatedTime) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  experiment.run_iteration();
  EXPECT_EQ(sim.now(), SimTime::seconds(27.0));
  experiment.run_iteration();
  EXPECT_EQ(sim.now(), SimTime::seconds(54.0));
  EXPECT_EQ(experiment.iterations_run(), 2u);
}

TEST(ExperimentTest, MeasuresPositiveWips) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  const auto result = experiment.run_iteration();
  EXPECT_GT(result.wips, 0.0);
  EXPECT_GT(result.mean_latency_ms, 0.0);
  EXPECT_EQ(result.line_wips.size(), 1u);
  EXPECT_NEAR(result.line_wips[0], result.wips, 1e-9);
}

TEST(ExperimentTest, BrowseOrderSplitSumsToTotal) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  const auto result = experiment.run_iteration();
  EXPECT_NEAR(result.wips_browse + result.wips_order, result.wips, 1e-9);
}

TEST(ExperimentTest, ThroughputScalesWithBrowsers) {
  double wips_small = 0.0;
  double wips_large = 0.0;
  {
    sim::Simulator sim;
    SystemModel system(sim, {});
    Experiment experiment(system, fast_config(60));
    experiment.run_iteration();
    wips_small = experiment.run_iteration().wips;
  }
  {
    sim::Simulator sim;
    SystemModel system(sim, {});
    Experiment experiment(system, fast_config(180));
    experiment.run_iteration();
    wips_large = experiment.run_iteration().wips;
  }
  EXPECT_GT(wips_large, wips_small * 2.0);
}

TEST(ExperimentTest, WorkloadSwitchChangesMix) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  auto config = fast_config(200);
  config.workload = tpcw::WorkloadKind::kBrowsing;
  Experiment experiment(system, config);
  experiment.run_iteration();
  const auto browsing = experiment.run_iteration();
  const double browse_share_before =
      browsing.wips_browse / std::max(1e-9, browsing.wips);
  experiment.set_workload(tpcw::WorkloadKind::kOrdering);
  EXPECT_EQ(experiment.workload(), tpcw::WorkloadKind::kOrdering);
  experiment.run_iteration();  // transition iteration
  const auto ordering = experiment.run_iteration();
  const double browse_share_after =
      ordering.wips_browse / std::max(1e-9, ordering.wips);
  EXPECT_GT(browse_share_before, 0.85);
  EXPECT_LT(browse_share_after, 0.62);
}

TEST(ExperimentTest, PerLineMetersForMultiLine) {
  SystemModel::Config system_config;
  system_config.lines = {SystemModel::LineSpec{1, 1, 1},
                         SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(system_config);
  Experiment experiment(system, fast_config(200));
  experiment.run_iteration();
  const auto result = experiment.run_iteration();
  ASSERT_EQ(result.line_wips.size(), 2u);
  EXPECT_GT(result.line_wips[0], 0.0);
  EXPECT_GT(result.line_wips[1], 0.0);
  // Browsers split evenly: lines should carry comparable load.
  EXPECT_NEAR(result.line_wips[0], result.line_wips[1],
              0.35 * result.line_wips[0]);
}

TEST(ExperimentTest, WirtTrackerReceivesPerInteractionLatencies) {
  SystemModel::Config system_config;
  system_config.lines = {SystemModel::LineSpec{1, 1, 1},
                         SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(system_config);
  Experiment experiment(system, fast_config(200));
  experiment.run_iteration();
  // A healthy lightly-loaded system is WIRT-compliant and the tracker saw
  // the bulk of the mix.
  const tpcw::WirtTracker wirt = experiment.wirt();
  EXPECT_TRUE(wirt.compliant());
  EXPECT_GT(wirt.samples(tpcw::Interaction::kHome), 0u);
  EXPECT_GT(wirt.samples(tpcw::Interaction::kSearchRequest), 0u);
  // Both lines merge in: the tracker holds exactly the successful
  // interactions the two meters counted inside the measurement window
  // (warm-up and cool-down traffic stay out).
  std::size_t samples = 0;
  for (const auto& check : wirt.check_all()) samples += check.samples;
  ASSERT_GT(experiment.meter(1).completed_ok(), 0u);
  EXPECT_EQ(samples, experiment.meter(0).completed_ok() +
                         experiment.meter(1).completed_ok());
  // Recording is cumulative over the run's measurement windows.
  experiment.run_iteration();
  EXPECT_GT(experiment.wirt().samples(tpcw::Interaction::kHome),
            wirt.samples(tpcw::Interaction::kHome));
}

TEST(ExperimentTest, DeterministicGivenSeed) {
  double first = 0.0;
  double second = 0.0;
  for (int run = 0; run < 2; ++run) {
    sim::Simulator sim;
    SystemModel system(sim, {});
    auto config = fast_config();
    config.seed = 99;
    Experiment experiment(system, config);
    experiment.run_iteration();
    const double wips = experiment.run_iteration().wips;
    (run == 0 ? first : second) = wips;
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ah::core
