// Scenario grammar: arrival-phase math, correlated-failure expansion, mix
// drift, fault verbs in the one grammar, and one test per hardening
// rejection (all with line/column diagnostics).
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ah::sim {
namespace {

using common::SimTime;

// -- Arrival-phase math ----------------------------------------------------

ArrivalPhase flash_phase() {
  ArrivalPhase phase;
  phase.kind = ArrivalPhase::Kind::kFlash;
  phase.t0 = SimTime::seconds(100.0);
  phase.t1 = SimTime::seconds(300.0);
  phase.magnitude = 3.0;
  return phase;
}

TEST(ArrivalPhaseTest, FlashIsTriangular) {
  const ArrivalPhase phase = flash_phase();
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(100.0)), 1.0);
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(150.0)), 2.0);  // halfway up
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(200.0)), 3.0);  // peak
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(250.0)), 2.0);  // halfway down
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(300.0)), 1.0);  // window edge
}

TEST(ArrivalPhaseTest, IdentityOutsideWindow) {
  const ArrivalPhase phase = flash_phase();
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::zero()), 1.0);
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(99.9)), 1.0);
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(301.0)), 1.0);
}

TEST(ArrivalPhaseTest, RampHoldsAfterWindow) {
  ArrivalPhase phase;
  phase.kind = ArrivalPhase::Kind::kRamp;
  phase.t0 = SimTime::seconds(10.0);
  phase.t1 = SimTime::seconds(20.0);
  phase.magnitude = 2.0;
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(10.0)), 1.0);
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(15.0)), 1.5);
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(20.0)), 2.0);  // holds ...
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(500.0)), 2.0);  // ... forever
}

TEST(ArrivalPhaseTest, DiurnalOscillatesInsideWindow) {
  ArrivalPhase phase;
  phase.kind = ArrivalPhase::Kind::kDiurnal;
  phase.t0 = SimTime::seconds(0.0);
  phase.t1 = SimTime::seconds(100.0);
  phase.magnitude = 0.5;
  phase.period = SimTime::seconds(40.0);
  EXPECT_NEAR(phase.factor(SimTime::seconds(0.0)), 1.0, 1e-12);
  EXPECT_NEAR(phase.factor(SimTime::seconds(10.0)), 1.5, 1e-12);  // sin peak
  EXPECT_NEAR(phase.factor(SimTime::seconds(30.0)), 0.5, 1e-12);  // trough
  EXPECT_DOUBLE_EQ(phase.factor(SimTime::seconds(100.0)), 1.0);  // outside
}

TEST(ArrivalModulationTest, FactorsMultiplyAndEmptyIsIdentity) {
  ArrivalModulation modulation;
  EXPECT_TRUE(modulation.empty());
  EXPECT_DOUBLE_EQ(modulation.factor(SimTime::seconds(200.0)), 1.0);
  modulation.phases.push_back(flash_phase());
  modulation.phases.push_back(flash_phase());
  // Two identical flashes compose multiplicatively: 3 * 3 at the peak.
  EXPECT_DOUBLE_EQ(modulation.factor(SimTime::seconds(200.0)), 9.0);
}

// -- Parsing ------------------------------------------------------------------

TEST(ScenarioPlanTest, ParsesArrivalPhasesAndMix) {
  const auto plan = ScenarioPlan::parse(
      "ramp:2.5@0-60; diurnal:0.3@10-500/120; flash:4@100-200; "
      "mix:ordering@150");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->arrival.phases.size(), 3u);
  EXPECT_EQ(plan->arrival.phases[0].kind, ArrivalPhase::Kind::kRamp);
  EXPECT_DOUBLE_EQ(plan->arrival.phases[0].magnitude, 2.5);
  EXPECT_EQ(plan->arrival.phases[1].kind, ArrivalPhase::Kind::kDiurnal);
  EXPECT_EQ(plan->arrival.phases[1].period, SimTime::seconds(120.0));
  EXPECT_EQ(plan->arrival.phases[2].kind, ArrivalPhase::Kind::kFlash);
  EXPECT_EQ(plan->arrival.phases[2].t0, SimTime::seconds(100.0));
  ASSERT_EQ(plan->mix_changes.size(), 1u);
  EXPECT_EQ(plan->mix_changes[0].mix, "ordering");
  EXPECT_EQ(plan->mix_changes[0].at, SimTime::seconds(150.0));
  EXPECT_TRUE(plan->faults.empty());
}

TEST(ScenarioPlanTest, RackExpandsToCrashRestartPerMember) {
  const auto plan = ScenarioPlan::parse("rack:3+5@100-200");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->faults.events.size(), 4u);
  EXPECT_EQ(plan->faults.events[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(plan->faults.events[0].node, 3u);
  EXPECT_EQ(plan->faults.events[0].at, SimTime::seconds(100.0));
  EXPECT_EQ(plan->faults.events[1].kind, FaultEvent::Kind::kRestart);
  EXPECT_EQ(plan->faults.events[1].node, 3u);
  EXPECT_EQ(plan->faults.events[1].at, SimTime::seconds(200.0));
  EXPECT_EQ(plan->faults.events[2].node, 5u);
  EXPECT_EQ(plan->faults.events[3].node, 5u);
}

TEST(ScenarioPlanTest, SwitchExpandsToBothLinkDirections) {
  const auto plan = ScenarioPlan::parse("switch:7@10-20,drop=0.4,delay=3ms");
  ASSERT_TRUE(plan.has_value());
  // One member: degrade+restore for 7->* and for *->7.
  ASSERT_EQ(plan->faults.events.size(), 4u);
  const FaultEvent& out = plan->faults.events[0];
  EXPECT_EQ(out.kind, FaultEvent::Kind::kLinkDegrade);
  EXPECT_EQ(out.node, 7u);
  EXPECT_EQ(out.peer, kFaultAnyNode);
  EXPECT_DOUBLE_EQ(out.magnitude, 0.4);
  EXPECT_EQ(out.delay, SimTime::millis(3));
  const FaultEvent& in = plan->faults.events[2];
  EXPECT_EQ(in.kind, FaultEvent::Kind::kLinkDegrade);
  EXPECT_EQ(in.node, kFaultAnyNode);
  EXPECT_EQ(in.peer, 7u);
  EXPECT_EQ(plan->faults.events[1].kind, FaultEvent::Kind::kLinkRestore);
  EXPECT_EQ(plan->faults.events[1].at, SimTime::seconds(20.0));
}

TEST(ScenarioPlanTest, FaultVerbsStillWorkInScenarioDialect) {
  const auto plan =
      ScenarioPlan::parse("crash:1@10; slow:2@20-30x2; restart:1@40");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->faults.events.size(), 4u);
  EXPECT_TRUE(plan->arrival.empty());
}

// -- Hardening rejections (one per rule) -----------------------------------

std::string reject(std::string_view text) {
  std::string error;
  EXPECT_FALSE(ScenarioPlan::parse(text, &error).has_value()) << text;
  EXPECT_FALSE(error.empty()) << text;
  return error;
}

TEST(ScenarioHardeningTest, RejectsOutOfOrderStartTimes) {
  const std::string error = reject("crash:1@100; restart:1@200; crash:2@50");
  EXPECT_NE(error.find("out-of-order"), std::string::npos);
  EXPECT_NE(error.find("crash:2@50"), std::string::npos);
}

TEST(ScenarioHardeningTest, RejectsDoubleCrash) {
  // Entry-ordered by start time, but node 1 crashes twice with no restart
  // in between — only the time-ordered sweep can see that.
  const std::string error = reject("crash:1@10; crash:1@20; restart:1@30");
  EXPECT_NE(error.find("crashed twice"), std::string::npos);
}

TEST(ScenarioHardeningTest, RejectsRestartOfHealthyNode) {
  const std::string error = reject("crash:1@10; restart:2@20");
  EXPECT_NE(error.find("not crashed"), std::string::npos);
}

TEST(ScenarioHardeningTest, RejectsOverlappingSlowWindows) {
  const std::string error = reject("slow:4@10-50x2; slow:4@30-60x3");
  EXPECT_NE(error.find("overlapping slow windows"), std::string::npos);
  // Distinct nodes may overlap freely.
  EXPECT_TRUE(ScenarioPlan::parse("slow:4@10-50x2; slow:5@30-60x3")
                  .has_value());
}

TEST(ScenarioHardeningTest, RejectsDuplicateMemberInList) {
  const std::string error = reject("rack:3+4+3@10-20");
  EXPECT_NE(error.find("duplicate node id"), std::string::npos);
}

TEST(ScenarioHardeningTest, SweepCatchesRackOverlappingSoloCrash) {
  // Node 3 is in the rack AND crashed individually inside the window.
  const std::string error = reject("rack:3+4@10-100; crash:3@50");
  EXPECT_NE(error.find("crashed twice"), std::string::npos);
}

TEST(ScenarioHardeningTest, RejectsUnknownVerbWithPosition) {
  const std::string error = reject("explode:1@10");
  EXPECT_NE(error.find("unknown keyword"), std::string::npos);
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("col 1"), std::string::npos);
}

TEST(ScenarioHardeningTest, DiagnosticsPointAtTheOffendingLine) {
  const std::string error =
      reject("crash:1@10;\nrestart:1@20;\nbadverb:2@30");
  EXPECT_NE(error.find("'badverb:2@30'"), std::string::npos);
  EXPECT_NE(error.find("line 3"), std::string::npos);
  EXPECT_NE(error.find("col 1"), std::string::npos);
}

TEST(ScenarioHardeningTest, RejectsMalformedScenarioEntries) {
  reject("flash:0.5@10-20");        // peak < 1
  reject("flash:3@20-20");          // empty window
  reject("ramp:0@10-20");           // factor must be > 0
  reject("diurnal:1.5@10-20/30");   // amplitude >= 1
  reject("diurnal:0.5@10-20/0");    // zero period
  reject("mix:9lives@10");          // identifier cannot start with a digit
  reject("rack:@10-20");            // empty member list
  reject("switch:1@10-20");         // missing drop=
  reject("rack:1+2@10-20 junk");    // trailing garbage
}

}  // namespace
}  // namespace ah::sim
