// Acceptance test for the fault-injection + graceful-degradation subsystem:
// a scripted app-node crash must be detected within the health checker's
// probe budget, traffic must reroute (zero requests reach the dead node),
// goodput must degrade gracefully rather than collapse, and recovery must
// restore throughput — all bit-identically across worker thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "sim/fault_injector.hpp"
#include "webstack/params.hpp"

namespace ah::core {
namespace {

using cluster::TierKind;
using common::SimTime;

Experiment::Config small_config(int browsers = 200) {
  Experiment::Config config;
  config.browsers = browsers;
  config.workload = tpcw::WorkloadKind::kShopping;
  config.iteration.warmup = SimTime::seconds(5.0);
  config.iteration.measure = SimTime::seconds(20.0);
  config.iteration.cooldown = SimTime::seconds(1.0);
  return config;
}

SystemModel::FaultToleranceConfig fast_fault_tolerance() {
  SystemModel::FaultToleranceConfig ft;
  ft.health.period = SimTime::millis(200);
  ft.health.mark_down_after = 2;
  ft.health.mark_up_after = 2;
  return ft;
}

TEST(FaultRecoveryTest, CrashMarkDownRerouteGoodputAndRecovery) {
  sim::Simulator sim;
  SystemModel::Config topology;
  topology.lines = {SystemModel::LineSpec{1, 2, 1}};  // a spare app node
  SystemModel system(sim, topology);
  const auto ft = fast_fault_tolerance();
  system.enable_fault_tolerance(ft);
  ASSERT_TRUE(system.fault_tolerance_enabled());

  Experiment experiment(system, small_config());
  experiment.run_iteration();  // 0..26 s: cache warm-up
  const auto healthy = experiment.run_iteration();  // 26..52 s
  EXPECT_FALSE(healthy.disturbed);
  EXPECT_GT(healthy.wips, 0.0);

  // Crash the second app node at t = 60 s, bring it back at t = 120 s.
  const auto victim = system.cluster().tier(TierKind::kApp).members()[1];
  const std::string plan_text = "crash:" + std::to_string(victim) +
                                "@60; restart:" + std::to_string(victim) +
                                "@120";
  const auto plan = sim::FaultPlan::parse(plan_text);
  ASSERT_TRUE(plan.has_value());
  system.install_fault_plan(*plan);

  // 52..78 s: the crash (and its health transition) lands mid-window.
  const auto transition_down = experiment.run_iteration();
  EXPECT_TRUE(transition_down.disturbed);

  // Mark-down must have completed within the probe budget — long past by
  // the end of that iteration.
  EXPECT_FALSE(system.cluster().node(victim).alive());
  EXPECT_FALSE(system.cluster().node(victim).marked_up());
  EXPECT_EQ(system.cluster().tier(TierKind::kApp).healthy_count(), 1u);
  EXPECT_GE(system.health_checker()->transitions(), 1u);
  const SimTime budget = cluster::HealthChecker::probe_budget(ft.health);
  EXPECT_LE(budget, SimTime::seconds(1.0));  // fast config sanity

  // 78..104 s: steady-state outage.  The dead node must see ZERO requests
  // (its refusal counter stays flat), and the survivor carries the load:
  // goodput degrades, it does not collapse, and fail-fast + rerouting keep
  // the error ratio tiny.
  const auto refused_before = system.app_on(victim).stats().refused;
  const auto outage = experiment.run_iteration();
  EXPECT_EQ(system.app_on(victim).stats().refused, refused_before);
  EXPECT_GT(outage.wips, 0.2 * healthy.wips);
  EXPECT_LT(outage.error_ratio, 0.10);
  EXPECT_FALSE(outage.disturbed);  // no fault *event* inside this window

  // 104..130 s: restart at 120 s lands mid-window.
  const auto transition_up = experiment.run_iteration();
  EXPECT_TRUE(transition_up.disturbed);
  EXPECT_TRUE(system.cluster().node(victim).alive());
  EXPECT_TRUE(system.cluster().node(victim).marked_up());
  EXPECT_EQ(system.cluster().tier(TierKind::kApp).healthy_count(), 2u);

  // 130..156 s: recovered steady state.
  const auto recovered = experiment.run_iteration();
  EXPECT_FALSE(recovered.disturbed);
  EXPECT_GT(recovered.wips, 0.7 * healthy.wips);
  EXPECT_LT(recovered.error_ratio, 0.05);

  // The dead node served requests again after recovery.
  EXPECT_GT(system.app_on(victim).stats().refused, 0u);  // pre-mark-down window
  EXPECT_GE(system.disturbance_count(), 4u);  // crash, down, restart, up
}

TEST(FaultRecoveryTest, SequentialDriverDiscardsDisturbedWindows) {
  sim::Simulator sim;
  SystemModel::Config topology;
  topology.lines = {SystemModel::LineSpec{1, 2, 1}};
  SystemModel system(sim, topology);
  system.enable_fault_tolerance(fast_fault_tolerance());
  Experiment experiment(system, small_config(60));

  const auto victim = system.cluster().tier(TierKind::kApp).members()[1];
  const std::string plan_text = "crash:" + std::to_string(victim) +
                                "@30; restart:" + std::to_string(victim) +
                                "@90";
  system.install_fault_plan(*sim::FaultPlan::parse(plan_text));

  TuningDriver::Options options;
  options.method = TuningMethod::kDuplication;
  options.threads = 1;  // sequential path
  TuningDriver driver(system, experiment, options);
  const auto result = driver.run(6, /*validation_iterations=*/0);
  ASSERT_EQ(result.wips_series.size(), 6u);
  // Both fault events (and the paired health transitions) overlapped
  // measurement windows, so at least one window was discarded + re-run.
  EXPECT_GE(result.discarded_windows, 1u);
  for (const double w : result.wips_series) EXPECT_GT(w, 0.0);
}

// Fault scenario on a replica set: the recovery trajectory must be
// bit-identical at any worker thread count (TSAN job runs this too — the
// discard counter is the only cross-thread state).
std::vector<double> faulted_series(std::size_t threads) {
  common::ThreadPool pool(threads);
  ParallelEvaluator::Options options;
  options.topology.lines = {SystemModel::LineSpec{1, 2, 1}};
  options.experiment = small_config(60);
  options.replicas = 2;
  ParallelEvaluator evaluator(pool, options);
  for (std::size_t r = 0; r < evaluator.replica_count(); ++r) {
    SystemModel& replica = evaluator.replica_system(r);
    replica.enable_fault_tolerance(fast_fault_tolerance());
    const auto victim =
        replica.cluster().tier(TierKind::kApp).members()[1];
    const std::string plan_text = "crash:" + std::to_string(victim) +
                                  "@30; restart:" + std::to_string(victim) +
                                  "@90";
    replica.install_fault_plan(*sim::FaultPlan::parse(plan_text));
  }
  const std::vector<harmony::PointI> batch(6, webstack::default_values());
  std::vector<double> wips;
  const auto apply = [](SystemModel& system, const harmony::PointI& values) {
    system.apply_values_all(values);
  };
  for (int round = 0; round < 2; ++round) {
    for (const auto& result : evaluator.evaluate(batch, apply)) {
      wips.push_back(result.wips);
    }
  }
  wips.push_back(static_cast<double>(evaluator.discarded_windows()));
  return wips;
}

// Healthy (no-fault) counterpart: the calendar-queue scheduler drives
// every replica timeline, and its pop order must not depend on how
// replicas are spread over worker threads.  Catches any wheel/cascade
// state that would leak across timelines.
std::vector<double> healthy_series(std::size_t threads) {
  common::ThreadPool pool(threads);
  ParallelEvaluator::Options options;
  options.topology.lines = {SystemModel::LineSpec{1, 2, 1}};
  options.experiment = small_config(60);
  options.replicas = 2;
  ParallelEvaluator evaluator(pool, options);
  const std::vector<harmony::PointI> batch(6, webstack::default_values());
  std::vector<double> wips;
  const auto apply = [](SystemModel& system, const harmony::PointI& values) {
    system.apply_values_all(values);
  };
  for (int round = 0; round < 2; ++round) {
    for (const auto& result : evaluator.evaluate(batch, apply)) {
      wips.push_back(result.wips);
    }
  }
  return wips;
}

TEST(FaultDeterminismTest, SchedulerTrajectoryIdenticalAcrossThreadCounts) {
  const auto one = healthy_series(1);
  const auto two = healthy_series(2);
  const auto eight = healthy_series(8);
  ASSERT_EQ(one.size(), 12u);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  for (const double w : one) EXPECT_GT(w, 0.0);
}

TEST(FaultDeterminismTest, RecoveryTrajectoryIdenticalAcrossThreadCounts) {
  const auto one = faulted_series(1);
  const auto two = faulted_series(2);
  const auto eight = faulted_series(8);
  ASSERT_EQ(one.size(), 13u);  // 12 measurements + discard count
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  for (std::size_t i = 0; i + 1 < one.size(); ++i) EXPECT_GT(one[i], 0.0);
}

}  // namespace
}  // namespace ah::core
