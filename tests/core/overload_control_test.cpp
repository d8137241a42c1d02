// Overload robustness end to end: admission shedding through the proxy
// tier, the identity-scenario bit-compatibility guarantee, reactive
// reconfiguration on mark-down and on sustained p95 breach, scenario
// determinism across thread counts, and retry x serve-stale behaviour
// under fail-slow plus link-degradation faults.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

#include "core/experiment.hpp"
#include "core/reconfig_controller.hpp"
#include "core/system_model.hpp"
#include "sim/scenario.hpp"

namespace ah::core {
namespace {

using cluster::TierKind;
using common::SimTime;

SystemModel::Config lines_config(std::vector<SystemModel::LineSpec> lines) {
  SystemModel::Config config;
  config.lines = std::move(lines);
  return config;
}

Experiment::Config fast_experiment(int browsers) {
  Experiment::Config config;
  config.browsers = browsers;
  config.iteration.warmup = SimTime::seconds(5.0);
  config.iteration.measure = SimTime::seconds(20.0);
  config.iteration.cooldown = SimTime::seconds(2.0);
  return config;
}

sim::ScenarioPlan parse_scenario(const std::string& text) {
  std::string error;
  auto plan = sim::ScenarioPlan::parse(text, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return *plan;
}

TEST(OverloadControlTest, SecondAdmissionEnableThrows) {
  // Admission control is set up once per model; a second call is refused
  // and leaves the running controller in place.
  sim::Simulator sim;
  SystemModel system(sim, lines_config({{1, 1, 1}}));
  system.enable_admission_control({});
  const ctrl::AdmissionController* controller = system.line_admission(0);
  ASSERT_NE(controller, nullptr);
  EXPECT_THROW(system.enable_admission_control({}), std::logic_error);
  EXPECT_EQ(system.line_admission(0), controller);
  sim.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(controller->ticks(), 3u);
}

TEST(OverloadControlTest, AdmissionShedsUnderOverloadAndTaintsWindows) {
  sim::Simulator sim;
  SystemModel system(sim, lines_config({{1, 1, 1}}));
  SystemModel::OverloadControlConfig control;
  control.admission.target_p95 = SimTime::millis(60);
  system.enable_admission_control(control);
  ASSERT_TRUE(system.admission_control_enabled());
  ASSERT_NE(system.line_admission(0), nullptr);

  Experiment experiment(system, fast_experiment(500));
  experiment.apply_scenario(parse_scenario("flash:3@5-50"));
  bool disturbed = false;
  double wips = 0.0;
  for (int i = 0; i < 2; ++i) {
    const IterationResult result = experiment.run_iteration();
    disturbed = disturbed || result.disturbed;
    wips = result.wips;
  }
  const obs::Registry& metrics = system.metrics();
  EXPECT_GT(metrics.counter_value("ctrl.shed"), 0u);
  EXPECT_GT(metrics.counter_value("ctrl.admitted"), 0u);
  EXPECT_GT(metrics.counter_value("ctrl.adjustments"), 0u);
  EXPECT_EQ(metrics.counter_value("proxy.shed"),
            metrics.counter_value("ctrl.shed"));
  // Serve-stale (the default shed mode) absorbs cacheable sheds.
  EXPECT_GT(metrics.counter_value("proxy.shed_stale"), 0u);
  EXPECT_LT(system.line_admission(0)->admit_fraction(), 1.0);
  // Controller actuations taint measurement windows like faults do, so the
  // tuner discards them (the harmony-side satellite of this stack).
  EXPECT_TRUE(disturbed);
  EXPECT_GT(wips, 0.0);
}

TEST(OverloadControlTest, IdentityScenarioIsBitIdentical) {
  // A flash with peak 1.0 divides every think draw by exactly 1.0; the
  // whole run must be bit-identical to a scenario-free one.  This is the
  // property that keeps the golden benchmark CSVs valid.
  std::vector<double> plain;
  std::vector<double> identity;
  for (const bool with_scenario : {false, true}) {
    sim::Simulator sim;
    SystemModel system(sim, lines_config({{1, 1, 1}}));
    Experiment experiment(system, fast_experiment(120));
    if (with_scenario) {
      experiment.apply_scenario(parse_scenario("flash:1@0-1000"));
    }
    auto& out = with_scenario ? identity : plain;
    for (int i = 0; i < 2; ++i) out.push_back(experiment.run_iteration().wips);
  }
  EXPECT_EQ(plain, identity);
}

TEST(OverloadControlTest, ReactiveBorrowsOnMarkDown) {
  sim::Simulator sim;
  SystemModel system(sim, lines_config({{2, 2, 2}}));
  system.enable_fault_tolerance({});
  Experiment experiment(system, fast_experiment(200));
  experiment.run_iteration();  // traffic + monitor samples for readings()

  ReconfigController controller(system);
  controller.enable_reactive({});
  ASSERT_TRUE(controller.reactive_enabled());

  // A whole-tier outage: both db nodes crash, staggered so the first
  // mark-down still leaves one healthy member (no borrow) and the second
  // leaves none (borrow).
  const double crash_at = system.now().as_seconds() + 5.0;
  sim::ScenarioPlan plan;
  for (std::size_t k = 0; k < 2; ++k) {
    sim::FaultEvent crash;
    crash.kind = sim::FaultEvent::Kind::kCrash;
    crash.at = SimTime::seconds(crash_at + 5.0 * static_cast<double>(k));
    crash.node = system.cluster().tier(TierKind::kDb).members()[k];
    plan.faults.events.push_back(crash);
  }
  system.install_scenario(plan);

  for (int i = 0; i < 2; ++i) experiment.run_iteration();
  // The second mark-down left the db tier below kMinHealthy; the
  // controller borrowed a healthy node from another tier to backfill it.
  EXPECT_EQ(controller.reactive_moves(), 1u);
  ASSERT_EQ(controller.moves().size(), 1u);
  EXPECT_EQ(controller.moves()[0].to_tier, static_cast<int>(TierKind::kDb));
  // The move relieves the db node whose mark-down triggered it.
  EXPECT_EQ(controller.moves()[0].overloaded_node,
            plan.faults.events[1].node);
  EXPECT_GE(system.cluster().healthy_count(TierKind::kDb),
            ReconfigController::kMinHealthy);
}

TEST(OverloadControlTest, ReactiveBorrowsOnSustainedP95Breach) {
  sim::Simulator sim;
  SystemModel system(sim, lines_config({{2, 2, 2}}));
  Experiment experiment(system, fast_experiment(400));
  for (int i = 0; i < 2; ++i) experiment.run_iteration();

  ReconfigController controller(system);
  ReconfigController::ReactiveOptions options;
  options.p95_target = SimTime::millis(100);
  controller.enable_reactive(options);
  static_assert(ReconfigController::kBreachStreak == 3);

  // Two breaches: still inside the hysteresis streak.
  EXPECT_FALSE(controller.observe_p95(SimTime::millis(400)).has_value());
  EXPECT_FALSE(controller.observe_p95(SimTime::millis(400)).has_value());
  // A good window resets the streak entirely.
  EXPECT_FALSE(controller.observe_p95(SimTime::millis(50)).has_value());
  EXPECT_FALSE(controller.observe_p95(SimTime::millis(400)).has_value());
  EXPECT_FALSE(controller.observe_p95(SimTime::millis(400)).has_value());
  // Third consecutive breach: borrow for the hottest tier.
  const auto decision = controller.observe_p95(SimTime::millis(400));
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(controller.reactive_moves(), 1u);
  // Cooldown: an immediate further breach streak does not move again.
  for (int i = 0; i < 6; ++i) controller.observe_p95(SimTime::millis(400));
  EXPECT_EQ(controller.reactive_moves(), 1u);
}

TEST(OverloadControlTest, ReactiveRefusesShardedModels) {
  SystemModel system(lines_config({{1, 1, 1}, {1, 1, 1}}));
  ReconfigController controller(system);
  EXPECT_THROW(controller.enable_reactive({}), std::logic_error);
}

/// Full-stack scenario run on a two-line model: returns the WIPS series and
/// the registry snapshot for one thread count.
std::pair<std::vector<double>, std::string> scenario_run(std::size_t threads) {
  SystemModel system(lines_config({{1, 1, 1}, {1, 1, 1}}));
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<common::ThreadPool>(threads);
    system.set_thread_pool(pool.get());
  }
  system.enable_fault_tolerance({});
  SystemModel::OverloadControlConfig control;
  control.admission.target_p95 = SimTime::millis(150);
  system.enable_admission_control(control);

  Experiment experiment(system, fast_experiment(240));
  // Flash everywhere, mix drift, and a correlated rack outage taking both
  // line-1 backends — every event lands on its member's own timeline.
  const auto line1 = system.line_nodes(1);
  const std::string text =
      "flash:2.5@3-50; mix:ordering@10; rack:" + std::to_string(line1[1]) +
      "+" + std::to_string(line1[2]) + "@12-20";
  experiment.apply_scenario(parse_scenario(text));

  std::pair<std::vector<double>, std::string> out;
  for (int i = 0; i < 2; ++i) {
    const IterationResult result = experiment.run_iteration();
    out.first.push_back(result.wips);
    out.first.insert(out.first.end(), result.line_wips.begin(),
                     result.line_wips.end());
  }
  out.second = system.metrics().json_string();
  system.set_thread_pool(nullptr);
  return out;
}

TEST(OverloadControlTest, ScenarioRunsAreDeterministicAcrossThreadCounts) {
  const auto serial = scenario_run(1);
  const auto two = scenario_run(2);
  const auto eight = scenario_run(8);
  EXPECT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first, two.first);
  EXPECT_EQ(serial.first, eight.first);
  EXPECT_EQ(serial.second, two.second);
  EXPECT_EQ(serial.second, eight.second);
}

TEST(OverloadControlTest, RetryAndServeStaleUnderFailSlowPlusLinkFaults) {
  sim::Simulator sim;
  SystemModel system(sim, lines_config({{1, 1, 1}}));
  system.enable_fault_tolerance({});  // upstream retries + serve-stale
  Experiment experiment(system, fast_experiment(150));
  // Warm the proxy cache, then age it past the 180s object TTL: serve-stale
  // only has something to serve once cached copies have expired.
  for (int i = 0; i < 7; ++i) experiment.run_iteration();

  // Fail-slow db plus a degraded app->db link across the next window: the
  // proxy's hop timeouts fire, retries re-forward, and cacheable misses
  // fall back to stale copies instead of erroring.
  const auto app = system.cluster().tier(TierKind::kApp).members()[0];
  const auto db = system.cluster().tier(TierKind::kDb).members()[0];
  const double t0 = system.now().as_seconds() + 2.0;
  const double t1 = t0 + 20.0;
  char text[128];
  std::snprintf(text, sizeof(text), "slow:%u@%.0f-%.0fx8; "
                "link:%u-%u@%.0f-%.0f,drop=0.8,delay=10ms",
                db, t0, t1, app, db, t0, t1);
  system.install_scenario(*sim::ScenarioPlan::parse(text));

  const IterationResult result = experiment.run_iteration();
  const obs::Registry& metrics = system.metrics();
  EXPECT_GT(metrics.counter_value("proxy.upstream_retries"), 0u);
  EXPECT_GT(metrics.counter_value("proxy.stale_served"), 0u);
  EXPECT_GT(result.wips, 0.0);  // degraded, not dead
  EXPECT_LT(result.error_ratio, 1.0);
}

TEST(OverloadControlTest, HealthMetricsTrackDownNodesInRegistry) {
  sim::Simulator sim;
  SystemModel system(sim, lines_config({{2, 2, 2}}));
  system.enable_fault_tolerance({});
  Experiment experiment(system, fast_experiment(100));
  experiment.run_iteration();

  const auto victim = system.cluster().tier(TierKind::kApp).members()[1];
  const double now_s = system.now().as_seconds();
  char text[64];
  std::snprintf(text, sizeof(text), "crash:%u@%.0f; restart:%u@%.0f", victim,
                now_s + 2.0, victim, now_s + 12.0);
  system.install_scenario(*sim::ScenarioPlan::parse(text));
  for (int i = 0; i < 2; ++i) experiment.run_iteration();

  const obs::Registry& metrics = system.metrics();
  EXPECT_GT(metrics.counter_value("health.failed_probes"), 0u);
  EXPECT_GE(metrics.counter_value("health.mark_downs"), 1u);
  EXPECT_GE(metrics.counter_value("health.mark_ups"), 1u);
  EXPECT_GT(metrics.counter_value("health.downtime_us"), 0u);
  // Everyone is back: the downtime window is closed and the gauge reads 0.
  EXPECT_NE(metrics.json_string().find("\"health.nodes_down\": 0.000000"),
            std::string::npos);
}

}  // namespace
}  // namespace ah::core
