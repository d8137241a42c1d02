#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"

namespace ah::sim {
namespace {

using common::SimTime;

/// The fault half of a parsed scenario; nullopt when `text` is rejected.
std::optional<FaultPlan> faults(std::string_view text,
                                std::string* error = nullptr) {
  auto plan = ScenarioPlan::parse(text, error);
  if (!plan.has_value()) return std::nullopt;
  return std::move(plan->faults);
}

TEST(FaultPlanTest, ParsesCrashAndRestart) {
  const auto plan = faults("crash:3@120; restart:3@300");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(plan->events[0].node, 3u);
  EXPECT_EQ(plan->events[0].at, SimTime::seconds(120.0));
  EXPECT_EQ(plan->events[1].kind, FaultEvent::Kind::kRestart);
  EXPECT_EQ(plan->events[1].at, SimTime::seconds(300.0));
}

TEST(FaultPlanTest, SlowWindowExpandsToStartEndPair) {
  const auto plan = faults("slow:1@10-40x3.5");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kSlowStart);
  EXPECT_EQ(plan->events[0].node, 1u);
  EXPECT_EQ(plan->events[0].at, SimTime::seconds(10.0));
  EXPECT_DOUBLE_EQ(plan->events[0].magnitude, 3.5);
  EXPECT_EQ(plan->events[1].kind, FaultEvent::Kind::kSlowEnd);
  EXPECT_EQ(plan->events[1].at, SimTime::seconds(40.0));
}

TEST(FaultPlanTest, LinkWindowWithWildcardAndDelay) {
  const auto plan = faults("link:*-2@400-460,drop=0.2,delay=5ms");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 2u);
  const FaultEvent& degrade = plan->events[0];
  EXPECT_EQ(degrade.kind, FaultEvent::Kind::kLinkDegrade);
  EXPECT_EQ(degrade.node, kFaultAnyNode);
  EXPECT_EQ(degrade.peer, 2u);
  EXPECT_DOUBLE_EQ(degrade.magnitude, 0.2);
  EXPECT_EQ(degrade.delay, SimTime::millis(5));
  EXPECT_EQ(plan->events[1].kind, FaultEvent::Kind::kLinkRestore);
  EXPECT_EQ(plan->events[1].at, SimTime::seconds(460.0));
}

TEST(FaultPlanTest, LinkWithoutDelayDefaultsToZero) {
  const auto plan = faults("link:0-1@5-6,drop=1");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->events[0].delay, SimTime::zero());
  EXPECT_DOUBLE_EQ(plan->events[0].magnitude, 1.0);
}

TEST(FaultPlanTest, EmptyTextIsEmptyPlan) {
  const auto plan = faults("  ;  ; ");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanTest, RejectsMalformedEntries) {
  std::string error;
  EXPECT_FALSE(faults("explode:1@10", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(faults("crash:1", &error).has_value());
  EXPECT_FALSE(faults("crash:*@10", &error).has_value());  // no wildcard
  EXPECT_FALSE(faults("slow:1@40-10x2", &error).has_value());  // t1 < t0
  EXPECT_FALSE(faults("slow:1@10-40x0.5", &error).has_value());  // < 1
  EXPECT_FALSE(faults("link:0-1@5-6,drop=1.5", &error).has_value());
  EXPECT_FALSE(faults("crash:1@10 trailing", &error).has_value());
}

TEST(FaultInjectorTest, FiresEventsAtScheduledTimes) {
  Simulator sim;
  FaultInjector injector(sim);
  const auto plan = faults("crash:0@10; restart:0@20");
  ASSERT_TRUE(plan.has_value());

  std::vector<std::pair<FaultEvent::Kind, double>> log;
  injector.arm(*plan, [&log, &sim](const FaultEvent& event) {
    log.emplace_back(event.kind, sim.now().as_seconds());
  });
  EXPECT_TRUE(injector.armed());

  sim.run_until(SimTime::seconds(15.0));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, FaultEvent::Kind::kCrash);
  EXPECT_DOUBLE_EQ(log[0].second, 10.0);

  sim.run_until(SimTime::seconds(30.0));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, FaultEvent::Kind::kRestart);
  EXPECT_DOUBLE_EQ(log[1].second, 20.0);
  EXPECT_EQ(injector.fired(), 2u);
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, DisarmCancelsPendingEvents) {
  Simulator sim;
  FaultInjector injector(sim);
  const auto plan = faults("crash:0@10");
  ASSERT_TRUE(plan.has_value());
  int fired = 0;
  injector.arm(*plan, [&fired](const FaultEvent&) { ++fired; });
  injector.disarm();
  sim.run_until(SimTime::seconds(20.0));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(injector.fired(), 0u);
}

TEST(FaultInjectorTest, RearmReplacesPreviousPlan) {
  Simulator sim;
  FaultInjector injector(sim);
  int crashes = 0;
  int slows = 0;
  injector.arm(*faults("crash:0@10"),
               [&crashes](const FaultEvent&) { ++crashes; });
  injector.arm(*faults("slow:0@5-6x2"),
               [&slows](const FaultEvent&) { ++slows; });
  sim.run_until(SimTime::seconds(20.0));
  EXPECT_EQ(crashes, 0);  // first plan was disarmed
  EXPECT_EQ(slows, 2);    // start + end
}

}  // namespace
}  // namespace ah::sim
