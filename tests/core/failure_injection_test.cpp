// Failure injection: the cluster must degrade gracefully, never wedge, and
// recover — the "running continuously and reliably" requirement the paper's
// introduction sets for e-commerce systems.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/system_model.hpp"
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

TEST(FailureInjectionTest, DbOutageDegradesToCacheableTrafficAndRecovers) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, small_config());
  experiment.run_iteration();
  const auto healthy = experiment.run_iteration();

  // Kill the database mid-run: dynamic pages fail, cacheable pages keep
  // flowing from the proxy.
  const auto db_id = system.cluster().tier(TierKind::kDb).members()[0];
  system.db_on(db_id).set_active(false);
  experiment.run_iteration();  // transition
  const auto outage = experiment.run_iteration();
  EXPECT_LT(outage.wips, healthy.wips);
  EXPECT_GT(outage.error_ratio, 0.10);
  EXPECT_GT(outage.wips_browse, 0.0);  // static traffic survives

  // Recovery: reactivate and confirm throughput returns.
  system.db_on(db_id).set_active(true);
  experiment.run_iteration();
  const auto recovered = experiment.run_iteration();
  EXPECT_GT(recovered.wips, outage.wips);
  EXPECT_LT(recovered.error_ratio, 0.05);
}

TEST(FailureInjectionTest, AppOutageFailsDynamicTraffic) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, small_config());
  experiment.run_iteration();
  const auto app_id = system.cluster().tier(TierKind::kApp).members()[0];
  system.app_on(app_id).set_active(false);
  experiment.run_iteration();
  const auto outage = experiment.run_iteration();
  // Every non-cached page fails; the system keeps responding (no wedge).
  EXPECT_GT(outage.error_ratio, 0.10);
  EXPECT_GT(outage.wips, 0.0);
}

TEST(FailureInjectionTest, OneOfTwoAppNodesDownHalvesCapacityOnly) {
  sim::Simulator sim;
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{1, 2, 1}};
  SystemModel system(sim, config);
  Experiment experiment(system, small_config(400));
  experiment.run_iteration();
  const auto before = experiment.run_iteration();

  // Deregister one app server the way reconfiguration drains a node: stop
  // new traffic by deactivating; the router's other backend absorbs load.
  const auto victims = system.cluster().tier(TierKind::kApp).members();
  system.app_on(victims[1]).set_active(false);
  experiment.run_iteration();
  const auto after = experiment.run_iteration();
  // Errors rise (the dead backend still gets picked and fails fast) but
  // the system keeps a substantial fraction of its throughput.
  EXPECT_GT(after.wips, before.wips * 0.25);
}

TEST(FailureInjectionTest, MoveUnderFullLoadKeepsServing) {
  sim::Simulator sim;
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{3, 2, 2}};
  SystemModel system(sim, config);
  Experiment experiment(system, small_config(1200));  // heavy load
  experiment.run_iteration();

  const auto donor = system.cluster().tier(TierKind::kProxy).members()[0];
  system.move_node(donor, TierKind::kApp, /*immediate=*/false,
                   SimTime::seconds(8.0));
  // The drain path must complete even while the queue never fully rests.
  const auto during = experiment.run_iteration();
  EXPECT_GT(during.wips, 0.0);
  experiment.run_iteration();
  EXPECT_FALSE(system.move_in_progress(donor));
  EXPECT_EQ(system.cluster().tier_of(donor), TierKind::kApp);
  const auto after = experiment.run_iteration();
  EXPECT_GT(after.wips, 0.0);
}

TEST(FailureInjectionTest, RepeatedReconfigurationIsStable) {
  sim::Simulator sim;
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{3, 3, 1}};
  SystemModel system(sim, config);
  Experiment experiment(system, small_config(300));
  experiment.run_iteration();
  // Bounce a node back and forth several times; each move must complete
  // and the system must keep serving.
  const auto wanderer = system.cluster().tier(TierKind::kProxy).members()[0];
  for (int round = 0; round < 3; ++round) {
    system.move_node(wanderer, TierKind::kApp, true, SimTime::seconds(4.0));
    experiment.run_iteration();
    ASSERT_FALSE(system.move_in_progress(wanderer));
    system.move_node(wanderer, TierKind::kProxy, true, SimTime::seconds(4.0));
    experiment.run_iteration();
    ASSERT_FALSE(system.move_in_progress(wanderer));
  }
  const auto final_result = experiment.run_iteration();
  EXPECT_GT(final_result.wips, 0.0);
  EXPECT_EQ(system.cluster().tier(TierKind::kProxy).size(), 3u);
  EXPECT_EQ(system.cluster().tier(TierKind::kApp).size(), 3u);
}

TEST(FailureInjectionTest, PathologicalConfigThenRecoveryViaDefaults) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, small_config());
  experiment.run_iteration();
  const auto healthy = experiment.run_iteration();

  // Worst-case configuration: minimum everything (1 thread, no queues,
  // tiny caches).  The system must limp, not deadlock.
  std::vector<std::int64_t> minimal;
  for (const auto& spec : webstack::parameter_catalogue()) {
    minimal.push_back(spec.min_value);
  }
  system.apply_values_all(minimal);
  experiment.run_iteration();
  const auto crippled = experiment.run_iteration();
  EXPECT_GE(crippled.wips, 0.0);

  // Applying the defaults restores health within two iterations.
  system.apply_values_all(webstack::default_values());
  experiment.run_iteration();
  const auto restored = experiment.run_iteration();
  EXPECT_GT(restored.wips, healthy.wips * 0.8);
}

TEST(FailureInjectionTest, FaultPlanNamingUnknownNodesIsRejected) {
  // A plan parses without knowing the topology, so the model checks the
  // node ids before arming anything; an unknown id would otherwise abort
  // the run when its event fired (or, as a link peer, do nothing).
  sim::Simulator sim;
  SystemModel system(sim, {});  // nodes 0-2
  for (const char* text :
       {"crash:3@10", "slow:7@10-20x3", "link:0-3@10-20,drop=0.5",
        "link:9-*@10-20,drop=0.5", "crash:1@10; crash:5@11"}) {
    const auto plan = sim::FaultPlan::parse(text);
    ASSERT_TRUE(plan.has_value()) << text;
    EXPECT_THROW(system.install_fault_plan(*plan), std::invalid_argument)
        << text;
  }
  sim.run_until(SimTime::seconds(30.0));
  EXPECT_EQ(system.disturbance_count(), 0u);  // nothing was armed

  // Known ids and wildcard link ends are accepted on every line.
  const auto plan = sim::FaultPlan::parse(
      "link:*-2@40-50,drop=0.5; link:*-*@40-50,drop=0.1; crash:2@45");
  ASSERT_TRUE(plan.has_value());
  EXPECT_NO_THROW(system.install_fault_plan(*plan));
  SystemModel::Config config;
  config.lines = {SystemModel::LineSpec{1, 1, 1},
                  SystemModel::LineSpec{1, 1, 1}};
  SystemModel two_lines(config);
  const auto beyond = sim::FaultPlan::parse("crash:6@10");
  ASSERT_TRUE(beyond.has_value());
  EXPECT_THROW(two_lines.install_fault_plan(*beyond), std::invalid_argument);
  EXPECT_NO_THROW(two_lines.install_fault_plan(*plan));
}

TEST(FailureInjectionTest, NodeCrashedDuringMoveStaysDownInItsNewTier) {
  // An app node crashes one second into a ten-second move to the proxy
  // tier.  When the move completes, the node joins the proxy tier dead: its
  // new role stays inactive until a restart, and the tier's healthy count
  // does not include it.
  for (const bool fault_tolerance : {false, true}) {
    SCOPED_TRACE(fault_tolerance ? "health checks on" : "health checks off");
    sim::Simulator sim;
    SystemModel::Config config;
    config.lines = {SystemModel::LineSpec{2, 2, 1}};
    SystemModel system(sim, config);
    if (fault_tolerance) system.enable_fault_tolerance({});
    const auto mover = system.cluster().tier(TierKind::kApp).members()[0];
    system.move_node(mover, TierKind::kProxy, /*immediate=*/true,
                     SimTime::seconds(10.0));
    sim.run_until(SimTime::seconds(1.0));
    system.crash_node(mover);
    sim.run_until(SimTime::seconds(15.0));

    ASSERT_FALSE(system.move_in_progress(mover));
    EXPECT_EQ(system.cluster().tier_of(mover), TierKind::kProxy);
    EXPECT_EQ(system.frontend(0).backend_count(), 3u);
    EXPECT_FALSE(system.proxy_on(mover).active());
    if (fault_tolerance) {
      EXPECT_FALSE(system.cluster().node(mover).marked_up());
      EXPECT_EQ(system.cluster().healthy_count(TierKind::kProxy), 2u);
    }

    // A restart brings the role up in the tier the node now belongs to.
    system.restart_node(mover);
    EXPECT_TRUE(system.proxy_on(mover).active());
    EXPECT_FALSE(system.app_on(mover).active());
  }
}

TEST(FailureInjectionTest, NodeReconfiguredWhileDownChargesMemoryOnce) {
  // The tuner applies its candidates to every node, crashed ones too.  A
  // stopped server takes the new parameters but charges nothing; its
  // restart charges the footprint once, as before the crash.
  for (const TierKind tier :
       {TierKind::kProxy, TierKind::kApp, TierKind::kDb}) {
    SCOPED_TRACE(cluster::tier_name(tier));
    sim::Simulator sim;
    SystemModel system(sim, {});
    const auto id = system.cluster().tier(tier).members()[0];
    const cluster::Node& node = system.cluster().node(id);
    const common::Bytes running = node.memory_used();
    ASSERT_GT(running, 0);

    system.crash_node(id);
    system.apply_values_all(webstack::default_values());
    EXPECT_EQ(node.memory_used(), 0);
    system.restart_node(id);
    EXPECT_EQ(node.memory_used(), running);
  }
}

}  // namespace
}  // namespace ah::core
