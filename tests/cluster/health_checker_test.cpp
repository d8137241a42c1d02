#include "cluster/health_checker.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace ah::cluster {
namespace {

using common::SimTime;

class HealthCheckerTest : public ::testing::Test {
 protected:
  HealthCheckerTest() {
    for (int i = 0; i < 3; ++i) cluster_.add_node(sim_, TierKind::kApp);
  }

  HealthChecker::Config fast_config() {
    HealthChecker::Config config;
    config.period = SimTime::millis(100);
    config.mark_down_after = 2;
    config.mark_up_after = 2;
    return config;
  }

  bool marked_up(NodeId id) const { return cluster_.node(id).marked_up(); }

  sim::Simulator sim_;
  Cluster cluster_;
  const std::vector<NodeId> all_{0, 1, 2};
};

TEST_F(HealthCheckerTest, HealthyNodesStayMarkedUp) {
  HealthChecker checker(sim_, cluster_, fast_config(), all_);
  sim_.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(checker.transitions(), 0u);
  for (NodeId id = 0; id < 3; ++id) EXPECT_TRUE(marked_up(id));
  // 10 ticks x 3 nodes.
  EXPECT_EQ(checker.probes_sent(), 30u);
}

TEST_F(HealthCheckerTest, CrashMarksDownWithinProbeBudget) {
  const auto config = fast_config();
  HealthChecker checker(sim_, cluster_, config, all_);
  sim_.run_until(SimTime::seconds(1.0));

  cluster_.node(1).set_alive(false);
  const SimTime crashed_at = sim_.now();
  sim_.run_until(crashed_at + HealthChecker::probe_budget(config));
  EXPECT_FALSE(marked_up(1));
  EXPECT_EQ(cluster_.healthy_count(TierKind::kApp), 2u);
  // Untouched nodes keep their mark.
  EXPECT_TRUE(marked_up(0));
  EXPECT_TRUE(marked_up(2));
}

TEST_F(HealthCheckerTest, SingleMissedProbeDoesNotFlip) {
  // mark_down_after = 2: one failed probe must never change routing.
  HealthChecker checker(sim_, cluster_, fast_config(), all_);
  cluster_.node(0).set_alive(false);
  sim_.run_until(SimTime::millis(150));  // exactly one probe tick
  EXPECT_TRUE(marked_up(0));
  cluster_.node(0).set_alive(true);
  sim_.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(marked_up(0));
  EXPECT_EQ(checker.transitions(), 0u);
}

TEST_F(HealthCheckerTest, RecoveryMarksUpAfterHysteresis) {
  HealthChecker checker(sim_, cluster_, fast_config(), all_);
  std::vector<std::pair<NodeId, bool>> log;
  checker.set_transition_observer(
      [&log](NodeId id, bool up) { log.emplace_back(id, up); });

  cluster_.node(2).set_alive(false);
  sim_.run_until(SimTime::seconds(1.0));
  EXPECT_FALSE(marked_up(2));

  cluster_.node(2).set_alive(true);
  sim_.run_until(SimTime::seconds(2.0));
  EXPECT_TRUE(marked_up(2));
  EXPECT_EQ(cluster_.healthy_count(TierKind::kApp), 3u);

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<NodeId, bool>{2, false}));
  EXPECT_EQ(log[1], (std::pair<NodeId, bool>{2, true}));
  EXPECT_EQ(checker.transitions(), 2u);
}

TEST_F(HealthCheckerTest, ProbesOnlyItsScope) {
  // A work line's checker probes that line's nodes and no others.
  HealthChecker checker(sim_, cluster_, fast_config(), {1});
  cluster_.node(0).set_alive(false);
  cluster_.node(1).set_alive(false);
  sim_.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(checker.probes_sent(), 10u);  // 10 ticks x 1 node
  EXPECT_TRUE(marked_up(0));
  EXPECT_FALSE(marked_up(1));
}

TEST_F(HealthCheckerTest, DestructionCancelsPendingTick) {
  {
    HealthChecker checker(sim_, cluster_, fast_config(), all_);
    sim_.run_until(SimTime::seconds(0.5));
    EXPECT_EQ(sim_.pending_events(), 1u);  // the next tick
  }
  EXPECT_EQ(sim_.pending_events(), 0u);
  cluster_.node(0).set_alive(false);
  sim_.run_until(SimTime::seconds(2.0));
  EXPECT_TRUE(marked_up(0));  // nobody noticed — probing ended
}

TEST_F(HealthCheckerTest, ProbeBudgetAndDowntimeAccounting) {
  // One crash-and-recover cycle, checked against every exported metric:
  // the failed-probe count (the probe budget being consumed), the
  // mark-down/mark-up transition tallies, the live nodes_down gauge, and
  // the aggregate marked-down node-time.
  HealthChecker checker(sim_, cluster_, fast_config(), all_);
  sim_.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(checker.failed_probes(), 0u);
  EXPECT_EQ(checker.nodes_down(), 0);
  EXPECT_EQ(checker.total_downtime(), SimTime::zero());

  cluster_.node(1).set_alive(false);
  sim_.run_until(SimTime::seconds(2.0));
  ASSERT_FALSE(marked_up(1));
  // mark_down_after = 2 consecutive failures, and every later tick on the
  // still-dead node keeps failing.
  EXPECT_GE(checker.failed_probes(), 2u);
  EXPECT_EQ(checker.mark_downs(), 1u);
  EXPECT_EQ(checker.mark_ups(), 0u);
  EXPECT_EQ(checker.nodes_down(), 1);
  // The window is still open: downtime accrues up to now and keeps
  // growing while the node stays marked down.
  const SimTime open_window = checker.total_downtime();
  EXPECT_GT(open_window, SimTime::zero());
  sim_.run_until(SimTime::seconds(2.5));
  EXPECT_GT(checker.total_downtime(), open_window);

  cluster_.node(1).set_alive(true);
  sim_.run_until(SimTime::seconds(4.0));
  ASSERT_TRUE(marked_up(1));
  EXPECT_EQ(checker.mark_ups(), 1u);
  EXPECT_EQ(checker.nodes_down(), 0);
  // Closed window: the total is frozen once everyone is back up.
  const SimTime closed = checker.total_downtime();
  EXPECT_GT(closed, open_window);
  sim_.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(checker.total_downtime(), closed);
}

}  // namespace
}  // namespace ah::cluster
