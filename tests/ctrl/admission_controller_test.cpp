// Feedback-controlled admission: convergence of the proportional loop,
// fuzzy deadband, the deterministic hash-based admit decision, and the
// controller's safety rails (kMinAdmit floor, kMinSamples gate).
#include "ctrl/admission_controller.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/simulator.hpp"

namespace ah::ctrl {
namespace {

using common::SimTime;

AdmissionController::Config test_config() {
  AdmissionController::Config config;
  config.target_p95 = SimTime::millis(500);
  return config;
}

static_assert(AdmissionController::kPeriod == SimTime::seconds(1.0),
              "feed_window places tick k at k seconds");

/// Feeds `samples` observations of `latency` and advances past tick `k`.
void feed_window(sim::Simulator& sim, AdmissionController& controller,
                 std::uint64_t k, SimTime latency, int samples = 32) {
  for (int i = 0; i < samples; ++i) controller.observe(latency);
  sim.run_until(SimTime::seconds(static_cast<double>(k)) + SimTime::millis(1));
}

TEST(AdmissionControllerTest, ShedsUnderSustainedBreachAndRecovers) {
  sim::Simulator sim;
  AdmissionController controller(sim, test_config());
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);

  // p95 at 4x the target: every tick cuts by the full kMaxStep.
  for (std::uint64_t k = 1; k <= 8; ++k) {
    feed_window(sim, controller, k, SimTime::millis(2000));
  }
  EXPECT_LT(controller.admit_fraction(), 0.2);
  EXPECT_GT(controller.adjustments(), 4u);

  // Latency falls well below target: the loop walks back up to wide open.
  for (std::uint64_t k = 9; k <= 20; ++k) {
    feed_window(sim, controller, k, SimTime::millis(50));
  }
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);
}

TEST(AdmissionControllerTest, FractionNeverDropsBelowFloor) {
  sim::Simulator sim;
  AdmissionController controller(sim, test_config());
  for (std::uint64_t k = 1; k <= 30; ++k) {
    feed_window(sim, controller, k, SimTime::seconds(30.0));
  }
  EXPECT_DOUBLE_EQ(controller.admit_fraction(),
                   AdmissionController::kMinAdmit);
  // Even at the floor, a sliver of traffic still reaches the backend (the
  // controller must keep measuring it to ever recover).
  int admitted = 0;
  for (std::uint64_t id = 0; id < 4096; ++id) {
    if (controller.admit(id)) ++admitted;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 4096 / 4);
}

TEST(AdmissionControllerTest, FuzzyDeadbandHoldsSteady) {
  sim::Simulator sim;
  AdmissionController controller(sim, test_config());
  // Within 10% of target: inside the deadband, no actuation at all.
  for (std::uint64_t k = 1; k <= 5; ++k) {
    feed_window(sim, controller, k, SimTime::millis(520));
  }
  EXPECT_EQ(controller.adjustments(), 0u);
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);
}

TEST(AdmissionControllerTest, ThinWindowsAreIgnored) {
  sim::Simulator sim;
  AdmissionController controller(sim, test_config());
  // Fewer than kMinSamples observations: the p95 is noise, don't act.
  for (std::uint64_t k = 1; k <= 5; ++k) {
    feed_window(sim, controller, k, SimTime::seconds(10.0), /*samples=*/4);
  }
  EXPECT_GT(controller.ticks(), 0u);
  EXPECT_EQ(controller.adjustments(), 0u);
  EXPECT_DOUBLE_EQ(controller.admit_fraction(), 1.0);
}

TEST(AdmissionControllerTest, AdmitDecisionIsDeterministicPerRequestId) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  AdmissionController a(sim_a, test_config());
  AdmissionController b(sim_b, test_config());
  // Drive both to the same partial fraction through identical feeds.
  for (std::uint64_t k = 1; k <= 3; ++k) {
    feed_window(sim_a, a, k, SimTime::millis(2000));
    feed_window(sim_b, b, k, SimTime::millis(2000));
  }
  ASSERT_DOUBLE_EQ(a.admit_fraction(), b.admit_fraction());
  ASSERT_LT(a.admit_fraction(), 1.0);

  std::set<std::uint64_t> admitted_a;
  std::set<std::uint64_t> admitted_b;
  for (std::uint64_t id = 0; id < 10000; ++id) {
    if (a.admit(id)) admitted_a.insert(id);
    if (b.admit(id)) admitted_b.insert(id);
  }
  // The decision hashes (request_id, salt): same subset on both
  // controllers, no RNG state involved, and roughly the right size.
  EXPECT_EQ(admitted_a, admitted_b);
  const double fraction = a.admit_fraction();
  EXPECT_NEAR(static_cast<double>(admitted_a.size()) / 10000.0, fraction,
              0.05);
}

TEST(AdmissionControllerTest, WideOpenAdmitsEverything) {
  sim::Simulator sim;
  AdmissionController controller(sim, test_config());
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_TRUE(controller.admit(id));
  }
  EXPECT_EQ(controller.admitted(), 1000u);
  EXPECT_EQ(controller.shed(), 0u);
}

TEST(AdmissionControllerTest, ChangeObserverSeesEveryActuation) {
  sim::Simulator sim;
  AdmissionController controller(sim, test_config());
  std::vector<double> fractions;
  controller.set_change_observer(
      [&fractions](double fraction) { fractions.push_back(fraction); });
  for (std::uint64_t k = 1; k <= 4; ++k) {
    feed_window(sim, controller, k, SimTime::millis(2000));
  }
  ASSERT_EQ(fractions.size(), controller.adjustments());
  ASSERT_GE(fractions.size(), 2u);
  EXPECT_LT(fractions.back(), fractions.front());
  EXPECT_DOUBLE_EQ(fractions.back(), controller.admit_fraction());
}

TEST(AdmissionControllerTest, DestructionCancelsPendingTick) {
  sim::Simulator sim;
  {
    AdmissionController controller(sim, test_config());
    feed_window(sim, controller, 2, SimTime::millis(2000));
    EXPECT_EQ(controller.ticks(), 2u);
    EXPECT_EQ(sim.pending_events(), 1u);  // the next tick
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(SimTime::seconds(10.0));  // nothing fires into the old one
}

}  // namespace
}  // namespace ah::ctrl
