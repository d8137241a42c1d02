#include "core/tuning_driver.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace ah::core {
namespace {

using common::SimTime;

Experiment::Config fast_config(int browsers = 150) {
  Experiment::Config config;
  config.browsers = browsers;
  config.iteration.warmup = SimTime::seconds(4.0);
  config.iteration.measure = SimTime::seconds(15.0);
  config.iteration.cooldown = SimTime::seconds(1.0);
  return config;
}

TEST(TuningDriverTest, MethodNames) {
  EXPECT_EQ(tuning_method_name(TuningMethod::kNone), "None (No Tuning)");
  EXPECT_EQ(tuning_method_name(TuningMethod::kDefault), "Default method");
  EXPECT_EQ(tuning_method_name(TuningMethod::kDuplication),
            "Parameter duplication");
  EXPECT_EQ(tuning_method_name(TuningMethod::kPartitioning),
            "Parameter partitioning");
}

TEST(TuningDriverTest, NoneMethodRunsWithoutSessions) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment, {.method = TuningMethod::kNone});
  const auto result = driver.run(3);
  EXPECT_EQ(result.wips_series.size(), 3u);
  EXPECT_EQ(result.best_configuration, webstack::default_values());
  EXPECT_EQ(driver.server().session_count(), 0u);
}

TEST(TuningDriverTest, DuplicationSessionHas23Dimensions) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  EXPECT_EQ(driver.server().session_count(), 1u);
  EXPECT_EQ(driver.server().session(0).space().dimensions(), 23u);
}

TEST(TuningDriverTest, DefaultMethodSpansAllNodes) {
  sim::Simulator sim;
  SystemModel::Config system_config;
  system_config.lines = {SystemModel::LineSpec{2, 2, 1}};
  SystemModel system(sim, system_config);
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment, {.method = TuningMethod::kDefault});
  // 2 proxies x 7 + 2 apps x 7 + 1 db x 9 = 37 dimensions.
  EXPECT_EQ(driver.server().session(0).space().dimensions(), 37u);
}

TEST(TuningDriverTest, PartitioningOneSessionPerLine) {
  SystemModel::Config system_config;
  system_config.lines = {SystemModel::LineSpec{1, 1, 1},
                         SystemModel::LineSpec{1, 1, 1},
                         SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(system_config);
  Experiment experiment(system, fast_config(240));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kPartitioning});
  EXPECT_EQ(driver.server().session_count(), 3u);
}

TEST(TuningDriverTest, RunRecordsSeriesAndEvaluations) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const auto result = driver.run(5, /*validation_iterations=*/0);
  EXPECT_EQ(result.wips_series.size(), 5u);
  EXPECT_EQ(driver.server().evaluations(0), 5u);
  for (const double wips : result.wips_series) EXPECT_GT(wips, 0.0);
  EXPECT_GT(result.best_wips, 0.0);
  EXPECT_EQ(result.best_configuration.size(), 23u);
}

TEST(TuningDriverTest, AppliedConfigurationsReachServers) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  driver.run(2, /*validation_iterations=*/0);
  // After two iterations, the second proposed configuration was applied;
  // it differs from defaults in exactly one dimension (init simplex).
  const auto app_id = system.cluster().tier(cluster::TierKind::kApp).members()[0];
  const auto proxy_id =
      system.cluster().tier(cluster::TierKind::kProxy).members()[0];
  const auto current = webstack::to_values(
      system.proxy_on(proxy_id).params(), system.app_on(app_id).params(),
      system
          .db_on(system.cluster().tier(cluster::TierKind::kDb).members()[0])
          .params());
  int diffs = 0;
  const auto defaults = webstack::default_values();
  for (std::size_t i = 0; i < defaults.size(); ++i) {
    if (current[i] != defaults[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1);
}

TEST(TuningDriverTest, PartitioningResultLayoutConcatenates) {
  SystemModel::Config system_config;
  system_config.lines = {SystemModel::LineSpec{1, 1, 1},
                         SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(system_config);
  Experiment experiment(system, fast_config(200));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kPartitioning});
  const auto result = driver.run(3);
  EXPECT_EQ(result.best_configuration.size(), 46u);
}

TEST(TuningDriverTest, ApplyConfigurationValidatesLayout) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  harmony::PointI wrong(10, 1);
  EXPECT_THROW(driver.apply_configuration(wrong), std::invalid_argument);
}

TEST(TuningDriverTest, ApplyConfigurationRestoresBest) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const auto result = driver.run(4);
  driver.apply_configuration(result.best_configuration);
  const auto proxy_id =
      system.cluster().tier(cluster::TierKind::kProxy).members()[0];
  EXPECT_EQ(system.proxy_on(proxy_id).params().cache_mem / (1024 * 1024),
            result.best_configuration[0]);
}

TEST(TuningDriverTest, ValidationPassSelectsHonestCandidate) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config(400));
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const auto result = driver.run(12, /*validation_iterations=*/2);
  // The validated figure comes from real re-measured iterations, so it is
  // positive and of the same magnitude as the series.
  EXPECT_GT(result.validated_wips, 0.0);
  EXPECT_LT(result.validated_wips, 3.0 * result.best_wips);
  // The chosen configuration must be one that was actually proposed.
  EXPECT_EQ(result.best_configuration.size(), 23u);
  const auto& history = driver.server().session(0).history();
  const bool found = std::any_of(
      history.begin(), history.end(), [&](const auto& entry) {
        return entry.configuration == result.best_configuration;
      });
  EXPECT_TRUE(found);
}

TEST(TuningDriverTest, ValidationSkippedWhenDisabled) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment,
                      {.method = TuningMethod::kDuplication});
  const std::size_t before = 3;
  const auto result = driver.run(before, /*validation_iterations=*/0);
  EXPECT_EQ(experiment.iterations_run(), before);  // no extra iterations
  EXPECT_DOUBLE_EQ(result.validated_wips, result.best_wips);
}

/// Every node's active-role parameters, as catalogue vectors.
std::vector<harmony::PointI> node_values(SystemModel& system) {
  std::vector<harmony::PointI> values;
  for (const cluster::NodeId node : system.all_nodes()) {
    webstack::ProxyParams proxy;
    webstack::AppParams app;
    webstack::DbParams db;
    switch (system.cluster().tier_of(node)) {
      case cluster::TierKind::kProxy:
        proxy = system.proxy_on(node).params();
        break;
      case cluster::TierKind::kApp:
        app = system.app_on(node).params();
        break;
      case cluster::TierKind::kDb:
        db = system.db_on(node).params();
        break;
    }
    values.push_back(webstack::to_values(proxy, app, db));
  }
  return values;
}

TEST(TuningDriverTest, RejectedConfigurationLeavesEveryNodeAsItWas) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, fast_config());
  TuningDriver driver(system, experiment, {.method = TuningMethod::kDefault});
  // A valid kDefault vector for the 1/1/1 line (7 + 7 + 9 values) with a
  // bigger proxy cache, then one value too many.
  harmony::PointI values;
  const auto defaults = webstack::default_values();
  for (const cluster::NodeId node : system.all_nodes()) {
    for (const std::size_t ci :
         webstack::catalogue_indices_for(system.cluster().tier_of(node))) {
      values.push_back(defaults[ci]);
    }
  }
  ASSERT_EQ(values.size(), 23u);
  values[webstack::catalogue_index("cache_mem")] = 48;
  values.push_back(1);
  const auto before = node_values(system);
  EXPECT_THROW(driver.apply_configuration(values), std::invalid_argument);
  EXPECT_EQ(node_values(system), before);
  values.pop_back();
  driver.apply_configuration(values);
  const auto proxy_id =
      system.cluster().tier(cluster::TierKind::kProxy).members()[0];
  EXPECT_EQ(system.proxy_on(proxy_id).params().cache_mem, 48LL * 1024 * 1024);
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

TEST(TuningResultTest, MeanAndStddevWindows) {
  TuningResult result;
  result.wips_series = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(result.mean_wips(0, 4), 25.0);
  EXPECT_DOUBLE_EQ(result.mean_wips(2, 4), 35.0);
  EXPECT_NEAR(result.stddev_wips(0, 2), 7.0710678, 1e-6);
  // Out-of-range windows clamp.
  EXPECT_DOUBLE_EQ(result.mean_wips(2, 100), 35.0);
  EXPECT_EQ(result.mean_wips(10, 20), 0.0);
}

}  // namespace
}  // namespace ah::core
