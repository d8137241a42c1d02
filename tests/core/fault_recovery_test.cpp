// Acceptance test for the fault-injection + graceful-degradation subsystem:
// a scripted app-node crash must be detected within the health checker's
// probe budget, traffic must reroute (zero requests reach the dead node),
// goodput must degrade gracefully rather than collapse, and recovery must
// restore throughput — all bit-identically across worker thread counts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "sim/scenario.hpp"

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
  const auto plan = sim::ScenarioPlan::parse(plan_text);
  ASSERT_TRUE(plan.has_value());
  system.install_scenario(*plan);

  // 52..78 s: the crash (and its health transition) lands mid-window.
  const auto transition_down = experiment.run_iteration();
  EXPECT_TRUE(transition_down.disturbed);

  // Mark-down must have completed within the probe budget — long past by
  // the end of that iteration.
  EXPECT_FALSE(system.cluster().node(victim).alive());
  EXPECT_FALSE(system.cluster().node(victim).marked_up());
  EXPECT_EQ(system.cluster().healthy_count(TierKind::kApp), 1u);
  EXPECT_GE(system.line_health_checker(0)->transitions(), 1u);
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
  EXPECT_EQ(system.cluster().healthy_count(TierKind::kApp), 2u);

  // 130..156 s: recovered steady state.
  const auto recovered = experiment.run_iteration();
  EXPECT_FALSE(recovered.disturbed);
  EXPECT_GT(recovered.wips, 0.7 * healthy.wips);
  EXPECT_LT(recovered.error_ratio, 0.05);

  // The dead node served requests again after recovery.
  EXPECT_GT(system.app_on(victim).stats().refused, 0u);  // pre-mark-down window
  EXPECT_GE(system.disturbance_count(), 4u);  // crash, down, restart, up
}

TEST(FaultRecoveryTest, SecondFaultToleranceEnableThrows) {
  // Fault tolerance is set up once per model.  A second call is refused
  // instead of dropping its health config, and the first checkers stay.
  sim::Simulator sim;
  SystemModel::Config topology;
  topology.lines = {SystemModel::LineSpec{1, 1, 1}};
  SystemModel system(sim, topology);
  system.enable_fault_tolerance({});
  const cluster::HealthChecker* checker = system.line_health_checker(0);
  ASSERT_NE(checker, nullptr);
  EXPECT_THROW(system.enable_fault_tolerance(fast_fault_tolerance()),
               std::logic_error);
  EXPECT_EQ(system.line_health_checker(0), checker);
  EXPECT_EQ(checker->config().period,
            SystemModel::FaultToleranceConfig{}.health.period);
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
  system.install_scenario(*sim::ScenarioPlan::parse(plan_text));

  TuningDriver::Options options;
  options.method = TuningMethod::kDuplication;
  TuningDriver driver(system, experiment, options);
  const auto result = driver.run(6, /*validation_iterations=*/0);
  ASSERT_EQ(result.wips_series.size(), 6u);
  // Both fault events (and the paired health transitions) overlapped
  // measurement windows, so at least one window was discarded + re-run.
  EXPECT_GE(result.discarded_windows, 1u);
  for (const double w : result.wips_series) EXPECT_GT(w, 0.0);
}

// Six iterations on a two-line model whose lines a `threads`-wide pool
// advances together: the total and per-line WIPS of every window, then
// (with `faults`) the number of disturbed windows.  With `faults`, one app
// node of each line crashes at t = 30 s and restarts at t = 90 s.
std::vector<double> two_line_series(std::size_t threads, bool faults) {
  common::ThreadPool pool(threads);
  SystemModel::Config topology;
  topology.lines = {SystemModel::LineSpec{1, 2, 1},
                    SystemModel::LineSpec{1, 2, 1}};
  SystemModel system(topology);
  system.set_thread_pool(&pool);
  if (faults) {
    system.enable_fault_tolerance(fast_fault_tolerance());
    // Line nodes are created proxy, app, app, db; plan entries are
    // time-sorted.
    const std::string a = std::to_string(system.line_nodes(0).at(2));
    const std::string b = std::to_string(system.line_nodes(1).at(2));
    const auto plan = sim::ScenarioPlan::parse(
        "crash:" + a + "@30; crash:" + b + "@30; restart:" + a +
        "@90; restart:" + b + "@90");
    EXPECT_TRUE(plan.has_value());
    if (plan.has_value()) system.install_scenario(*plan);
  }
  Experiment experiment(system, small_config(120));
  std::vector<double> series;
  double disturbed = 0.0;
  for (int i = 0; i < 6; ++i) {
    const IterationResult result = experiment.run_iteration();
    series.push_back(result.wips);
    series.insert(series.end(), result.line_wips.begin(),
                  result.line_wips.end());
    if (result.disturbed) disturbed += 1.0;
  }
  if (faults) series.push_back(disturbed);
  system.set_thread_pool(nullptr);
  return series;
}

// Healthy run: the calendar-queue scheduler drives every line's timeline,
// and its pop order must not depend on how lines are spread over worker
// threads.  Catches any wheel/cascade state that would leak across
// timelines.
TEST(FaultDeterminismTest, SchedulerTrajectoryIdenticalAcrossThreadCounts) {
  const auto one = two_line_series(1, false);
  const auto two = two_line_series(2, false);
  const auto eight = two_line_series(8, false);
  ASSERT_EQ(one.size(), 18u);  // 6 windows x (total + 2 lines)
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  for (const double w : one) EXPECT_GT(w, 0.0);
}

// Faulted run: the recovery trajectory must be bit-identical at any
// worker thread count (the TSAN job runs this too — the disturbance
// counter is the only state the lines' threads share).
TEST(FaultDeterminismTest, RecoveryTrajectoryIdenticalAcrossThreadCounts) {
  const auto one = two_line_series(1, true);
  const auto two = two_line_series(2, true);
  const auto eight = two_line_series(8, true);
  ASSERT_EQ(one.size(), 19u);  // 18 readings + disturbed-window count
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // Both fault events (and the paired health transitions) land inside
  // measurement windows.
  EXPECT_GE(one.back(), 2.0);
  for (std::size_t i = 0; i + 1 < one.size(); ++i) EXPECT_GT(one[i], 0.0);
}

}  // namespace
}  // namespace ah::core
