// Per-line timelines: determinism across thread counts, a one-line model on
// a caller-owned timeline matching an owned one, line-local fault plans,
// and the shared immutable model layer.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/model_immutable.hpp"
#include "core/system_model.hpp"

namespace ah::core {
namespace {

using cluster::TierKind;
using common::SimTime;

SystemModel::Config lines_config(std::vector<SystemModel::LineSpec> lines) {
  SystemModel::Config config;
  config.lines = std::move(lines);
  return config;
}

Experiment::Config fast_experiment(int browsers = 160) {
  Experiment::Config config;
  config.browsers = browsers;
  config.iteration.warmup = SimTime::seconds(5.0);
  config.iteration.measure = SimTime::seconds(20.0);
  config.iteration.cooldown = SimTime::seconds(2.0);
  return config;
}

/// Runs `iterations` on a freshly built multi-line system with `threads`
/// worker threads (1 = serial) and returns every per-line WIPS reading
/// plus the final registry snapshot.
struct ShardedRun {
  std::vector<double> wips;
  std::string registry_json;
};

ShardedRun run_sharded(std::size_t threads, std::size_t iterations) {
  SystemModel system(lines_config({{1, 1, 1}, {1, 2, 1}, {2, 1, 1}, {1, 1, 1}}));
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<common::ThreadPool>(threads);
    system.set_thread_pool(pool.get());
  }
  Experiment experiment(system, fast_experiment(240));
  ShardedRun run;
  for (std::size_t i = 0; i < iterations; ++i) {
    const IterationResult result = experiment.run_iteration();
    run.wips.push_back(result.wips);
    run.wips.insert(run.wips.end(), result.line_wips.begin(),
                    result.line_wips.end());
  }
  run.registry_json = system.metrics().json_string();
  system.set_thread_pool(nullptr);
  return run;
}

TEST(ShardedModelTest, ShardedTimelineDeterminism) {
  // The headline contract: WIPS series and the full registry snapshot are
  // byte-identical whether the lines run serially or on 2 or 8 threads.
  const ShardedRun serial = run_sharded(1, 3);
  const ShardedRun two = run_sharded(2, 3);
  const ShardedRun eight = run_sharded(8, 3);
  EXPECT_EQ(serial.wips, two.wips);
  EXPECT_EQ(serial.wips, eight.wips);
  EXPECT_EQ(serial.registry_json, two.registry_json);
  EXPECT_EQ(serial.registry_json, eight.registry_json);
}

TEST(ShardedModelTest, ShardedMatchesLegacyPerLineWips) {
  // A one-line model runs the same code whether its timeline is borrowed
  // from the caller or owned by the model, so the WIPS series and the full
  // registry snapshot agree exactly.  (Multi-line equivalence with the
  // former shared-timeline mode is pinned by the Table 4 golden CSVs.)
  const auto topology = lines_config({{1, 2, 1}});
  const auto run = [](SystemModel& system) {
    Experiment experiment(system, fast_experiment());
    ShardedRun out;
    for (int i = 0; i < 2; ++i) {
      out.wips.push_back(experiment.run_iteration().wips);
    }
    out.registry_json = system.metrics().json_string();
    return out;
  };
  sim::Simulator sim;
  SystemModel borrowed(sim, topology);
  SystemModel owned(topology);
  const ShardedRun on_borrowed = run(borrowed);
  const ShardedRun on_owned = run(owned);
  EXPECT_EQ(on_borrowed.wips, on_owned.wips);
  EXPECT_EQ(on_borrowed.registry_json, on_owned.registry_json);
}

TEST(ShardedModelTest, AsymmetricLinesApplyValuesLineIsScoped) {
  SystemModel system(lines_config({{2, 1, 1}, {1, 3, 1}, {1, 1, 2}}));
  ASSERT_EQ(system.line_count(), 3u);
  EXPECT_EQ(system.cluster().node_count(), 4u + 5u + 4u);
  for (std::size_t line = 0; line < 3; ++line) {
    for (const auto id : system.line_nodes(line)) {
      EXPECT_EQ(system.line_of(id), line);
    }
  }
  auto values = webstack::default_values();
  values[webstack::catalogue_index("maxProcessors")] = 321;
  system.apply_values_line(1, values);
  for (std::size_t line = 0; line < 3; ++line) {
    for (const auto id : system.line_nodes(line)) {
      if (system.cluster().tier_of(id) != TierKind::kApp) continue;
      EXPECT_EQ(system.app_on(id).params().max_processors,
                line == 1 ? 321 : webstack::AppParams{}.max_processors);
    }
  }
}

TEST(ShardedModelTest, FaultPlanStaysLineLocal) {
  SystemModel system(lines_config({{1, 1, 1}, {1, 1, 1}}));
  const auto victim = system.line_nodes(1).at(0);
  sim::FaultPlan plan;
  sim::FaultEvent crash;
  crash.kind = sim::FaultEvent::Kind::kCrash;
  crash.at = SimTime::seconds(1.0);
  crash.node = victim;
  plan.events.push_back(crash);
  system.install_fault_plan(plan);
  system.run_all_until(SimTime::seconds(2.0));
  EXPECT_FALSE(system.cluster().node(victim).alive());
  for (const auto id : system.line_nodes(0)) {
    EXPECT_TRUE(system.cluster().node(id).alive());
  }
  EXPECT_EQ(system.disturbance_count(), 1u);
}

TEST(ShardedModelTest, PerLineHealthCheckersAreScoped) {
  SystemModel system(lines_config({{1, 1, 1}, {1, 1, 1}}));
  system.enable_fault_tolerance({});
  for (std::size_t line = 0; line < 2; ++line) {
    auto* checker = system.line_health_checker(line);
    ASSERT_NE(checker, nullptr);
    EXPECT_EQ(checker->scope(), system.line_nodes(line));
  }
  // A crash in line 1 is marked down by line 1's checker; line 0's marks
  // are untouched.
  const auto victim = system.line_nodes(1).at(0);
  system.run_all_until(SimTime::seconds(1.0));
  system.crash_node(victim);
  system.run_all_until(
      SimTime::seconds(1.0) +
      cluster::HealthChecker::probe_budget(
          system.line_health_checker(1)->config()));
  EXPECT_FALSE(system.cluster().node(victim).marked_up());
  for (const auto id : system.line_nodes(0)) {
    EXPECT_TRUE(system.cluster().node(id).marked_up());
  }
}

TEST(ShardedModelTest, SingleTimelineAccessorsThrowWhenSharded) {
  // Node moves and the shared trace ring need a one-line model.
  SystemModel system(lines_config({{1, 1, 1}, {1, 1, 1}}));
  EXPECT_THROW(
      system.move_node(system.line_nodes(0).at(0), TierKind::kApp, true,
                       SimTime::seconds(1.0)),
      std::logic_error);
  obs::TraceRecorder trace(16);
  EXPECT_THROW(system.set_trace_recorder(&trace), std::logic_error);
  EXPECT_NO_THROW(system.set_trace_recorder(nullptr));
  EXPECT_NO_THROW(static_cast<void>(system.line_simulator(1)));
  EXPECT_THROW(static_cast<void>(system.line_simulator(2)),
               std::out_of_range);
}

TEST(ShardedModelTest, AllNodesIsCachedAndStable) {
  SystemModel system(lines_config({{1, 2, 1}, {1, 1, 1}}));
  const auto* first = &system.all_nodes();
  const auto* second = &system.all_nodes();
  EXPECT_EQ(first, second);  // same vector, not a fresh copy per call
  ASSERT_EQ(first->size(), system.cluster().node_count());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], static_cast<cluster::NodeId>(i));
  }
}

TEST(ShardedModelTest, ReplicasShareOneImmutableLayer) {
  // Two models built from one Config::shared share one popularity table
  // and run identical histories.
  SystemModel::Config topology = lines_config({{1, 1, 1}});
  const Experiment::Config experiment = fast_experiment(60);
  topology.shared = make_model_immutable(topology, experiment);
  SystemModel a(topology);
  SystemModel b(topology);
  ASSERT_NE(a.shared_popularity(), nullptr);
  EXPECT_EQ(a.shared_popularity(), topology.shared);
  EXPECT_EQ(b.shared_popularity(), a.shared_popularity());
  Experiment on_a(a, experiment);
  Experiment on_b(b, experiment);
  EXPECT_EQ(on_a.run_iteration().wips, on_b.run_iteration().wips);
}

}  // namespace
}  // namespace ah::core
