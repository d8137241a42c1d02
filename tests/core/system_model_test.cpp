#include "core/system_model.hpp"

#include <gtest/gtest.h>

namespace ah::core {
namespace {

using cluster::TierKind;
using common::SimTime;

SystemModel::Config single_line(int proxies = 1, int apps = 1, int dbs = 1) {
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{proxies, apps, dbs}};
  return config;
}

TEST(SystemModelTest, BuildsNodesPerLineSpec) {
  sim::Simulator sim;
  SystemModel system(sim, single_line(2, 3, 1));
  EXPECT_EQ(system.cluster().node_count(), 6u);
  EXPECT_EQ(system.cluster().tier(TierKind::kProxy).size(), 2u);
  EXPECT_EQ(system.cluster().tier(TierKind::kApp).size(), 3u);
  EXPECT_EQ(system.cluster().tier(TierKind::kDb).size(), 1u);
  EXPECT_EQ(system.line_count(), 1u);
  EXPECT_EQ(system.line_nodes(0).size(), 6u);
}

TEST(SystemModelTest, MultiLineTopology) {
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{1, 1, 1},
                  SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(config);
  EXPECT_EQ(system.line_count(), 2u);
  EXPECT_EQ(system.cluster().node_count(), 6u);
  EXPECT_EQ(system.line_of(0), 0u);
  EXPECT_EQ(system.line_of(3), 1u);
}

TEST(SystemModelTest, RejectsEmptyConfigs) {
  sim::Simulator sim;
  SystemModel::Config none;
  none.lines.clear();
  EXPECT_THROW(SystemModel(sim, none), std::invalid_argument);
  SystemModel::Config zero;
  zero.lines = {SystemModel::LineSpec{0, 1, 1}};
  EXPECT_THROW(SystemModel(sim, zero), std::invalid_argument);
  // A caller-owned timeline carries exactly one work line.
  SystemModel::Config two;
  two.lines = {SystemModel::LineSpec{1, 1, 1}, SystemModel::LineSpec{1, 1, 1}};
  EXPECT_THROW(SystemModel(sim, two), std::invalid_argument);
}

TEST(SystemModelTest, OnlyMatchingRoleActive) {
  sim::Simulator sim;
  SystemModel system(sim, single_line());
  const auto proxy_id = system.cluster().tier(TierKind::kProxy).members()[0];
  const auto app_id = system.cluster().tier(TierKind::kApp).members()[0];
  EXPECT_TRUE(system.proxy_on(proxy_id).active());
  EXPECT_FALSE(system.app_on(proxy_id).active());
  EXPECT_FALSE(system.db_on(proxy_id).active());
  EXPECT_TRUE(system.app_on(app_id).active());
  EXPECT_FALSE(system.proxy_on(app_id).active());
}

TEST(SystemModelTest, ApplyValuesReachesTierServers) {
  sim::Simulator sim;
  SystemModel system(sim, single_line());
  auto values = webstack::default_values();
  values[webstack::catalogue_index("maxProcessors")] = 321;
  values[webstack::catalogue_index("thread_con")] = 77;
  values[webstack::catalogue_index("cache_mem")] = 64;
  system.apply_values_all(values);
  const auto app_id = system.cluster().tier(TierKind::kApp).members()[0];
  const auto db_id = system.cluster().tier(TierKind::kDb).members()[0];
  const auto proxy_id = system.cluster().tier(TierKind::kProxy).members()[0];
  EXPECT_EQ(system.app_on(app_id).params().max_processors, 321);
  EXPECT_EQ(system.db_on(db_id).params().thread_concurrency, 77);
  EXPECT_EQ(system.proxy_on(proxy_id).params().cache_mem, 64LL * 1024 * 1024);
}

TEST(SystemModelTest, ApplyValuesLineIsScoped) {
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{1, 1, 1},
                  SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(config);
  auto values = webstack::default_values();
  values[webstack::catalogue_index("maxProcessors")] = 500;
  system.apply_values_line(1, values);
  const auto line0_app = system.line_nodes(0)[1];
  const auto line1_app = system.line_nodes(1)[1];
  EXPECT_EQ(system.app_on(line0_app).params().max_processors, 20);
  EXPECT_EQ(system.app_on(line1_app).params().max_processors, 500);
}

TEST(SystemModelTest, ReadingsCoverAllNodes) {
  sim::Simulator sim;
  SystemModel system(sim, single_line(2, 1, 1));
  const auto readings = system.readings();
  ASSERT_EQ(readings.size(), 4u);
  for (const auto& r : readings) {
    EXPECT_EQ(r.utilization.size(), 4u);  // cpu, disk, nic, memory
  }
}

TEST(SystemModelTest, MoveNodeImmediateSwitchesRole) {
  sim::Simulator sim;
  SystemModel system(sim, single_line(2, 1, 1));
  const auto donor = system.cluster().tier(TierKind::kProxy).members()[0];
  system.move_node(donor, TierKind::kApp, /*immediate=*/true,
                   SimTime::seconds(5.0));
  EXPECT_TRUE(system.move_in_progress(donor));
  sim.run_until(sim.now() + SimTime::seconds(10.0));
  EXPECT_FALSE(system.move_in_progress(donor));
  EXPECT_EQ(system.cluster().tier_of(donor), TierKind::kApp);
  EXPECT_TRUE(system.app_on(donor).active());
  EXPECT_FALSE(system.proxy_on(donor).active());
}

TEST(SystemModelTest, MoveLastTierMemberThrows) {
  sim::Simulator sim;
  SystemModel system(sim, single_line());
  const auto only_proxy = system.cluster().tier(TierKind::kProxy).members()[0];
  EXPECT_THROW(system.move_node(only_proxy, TierKind::kApp, true,
                                SimTime::seconds(1.0)),
               std::logic_error);
}

TEST(SystemModelTest, DoubleMoveThrows) {
  sim::Simulator sim;
  SystemModel system(sim, single_line(2, 1, 1));
  const auto donor = system.cluster().tier(TierKind::kProxy).members()[0];
  system.move_node(donor, TierKind::kApp, true, SimTime::seconds(5.0));
  EXPECT_THROW(
      system.move_node(donor, TierKind::kDb, true, SimTime::seconds(5.0)),
      std::logic_error);
}

TEST(SystemModelTest, MovingNodeExcludedFromReadings) {
  sim::Simulator sim;
  SystemModel system(sim, single_line(2, 1, 1));
  const auto donor = system.cluster().tier(TierKind::kProxy).members()[0];
  system.move_node(donor, TierKind::kApp, true, SimTime::seconds(5.0));
  const auto readings = system.readings();
  EXPECT_EQ(readings.size(), 3u);
  for (const auto& r : readings) EXPECT_NE(r.node_id, donor);
}

TEST(SystemModelTest, DefaultReconfigOptionsSane) {
  const auto options = SystemModel::default_reconfig_options();
  ASSERT_EQ(options.resources.size(), 4u);
  for (const auto& r : options.resources) {
    EXPECT_LE(r.low_threshold, r.high_threshold);
    EXPECT_GT(r.urgency_weight, 0.0);
  }
  EXPECT_GT(options.config_cost_seconds, 0.0);
}

}  // namespace
}  // namespace ah::core
