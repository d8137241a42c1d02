#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/move_counter.hpp"

namespace ah::sim {
namespace {

using common::SimTime;

class ResourceTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(ResourceTest, SingleJobCompletesAfterDemand) {
  Resource r(sim_, "r", {.servers = 1});
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, SimTime::millis(10));
  EXPECT_EQ(r.completed(), 1u);
}

TEST_F(ResourceTest, FifoQueueing) {
  Resource r(sim_, "r", {.servers = 1});
  std::vector<int> order;
  r.submit(SimTime::millis(10), [&] { order.push_back(1); });
  r.submit(SimTime::millis(5), [&] { order.push_back(2); });
  r.submit(SimTime::millis(1), [&] { order.push_back(3); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // Sequential service: 10, then +5, then +1.
  EXPECT_EQ(sim_.now(), SimTime::millis(16));
}

TEST_F(ResourceTest, MultipleServersRunConcurrently) {
  Resource r(sim_, "r", {.servers = 2});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  sim_.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(sim_.now(), SimTime::millis(10));  // parallel, not 20
}

TEST_F(ResourceTest, SlowdownScalesServiceTime) {
  Resource r(sim_, "r", {.servers = 1, .slowdown = 2.0});
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, SimTime::millis(20));
}

TEST_F(ResourceTest, SlowdownChangeAffectsNewJobsOnly) {
  Resource r(sim_, "r", {.servers = 1});
  std::vector<SimTime> done;
  r.submit(SimTime::millis(10), [&] { done.push_back(sim_.now()); });
  r.set_slowdown(3.0);
  r.submit(SimTime::millis(10), [&] { done.push_back(sim_.now()); });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::millis(10));  // started before the change
  EXPECT_EQ(done[1], SimTime::millis(40));  // 10 + 10*3
}

TEST_F(ResourceTest, GrowServersStartsQueuedJobs) {
  Resource r(sim_, "r", {.servers = 1});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.set_servers(2);  // second job starts immediately
  sim_.run();
  EXPECT_EQ(sim_.now(), SimTime::millis(10));
  EXPECT_EQ(completed, 2);
}

TEST_F(ResourceTest, ShrinkLetsRunningJobsFinish) {
  Resource r(sim_, "r", {.servers = 2});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.set_servers(1);
  EXPECT_EQ(r.busy(), 2);  // both still in service
  r.submit(SimTime::millis(10), [&] { ++completed; });
  sim_.run();
  EXPECT_EQ(completed, 3);
  // Third job waits until both finish (t=10), runs on the 1 remaining
  // server until t=20.
  EXPECT_EQ(sim_.now(), SimTime::millis(20));
}

TEST_F(ResourceTest, BusyIntegralTracksUtilization) {
  Resource r(sim_, "r", {.servers = 2});
  r.submit(SimTime::millis(10), {});
  r.submit(SimTime::millis(10), {});
  sim_.run_until(SimTime::millis(20));
  // 2 servers busy for 10ms each = 20'000 server-us.
  EXPECT_EQ(r.busy_integral(), 20000);
}

TEST_F(ResourceTest, UtilizationSinceWindow) {
  Resource r(sim_, "r", {.servers = 1});
  const auto integral0 = r.busy_integral();
  const auto t0 = sim_.now();
  r.submit(SimTime::millis(5), {});
  sim_.run_until(SimTime::millis(10));
  EXPECT_NEAR(r.utilization_since(integral0, t0), 0.5, 1e-9);
}

TEST_F(ResourceTest, UtilizationZeroWindow) {
  Resource r(sim_, "r", {.servers = 1});
  EXPECT_EQ(r.utilization_since(0, sim_.now()), 0.0);
}

TEST_F(ResourceTest, QueueIntegralAccumulates) {
  Resource r(sim_, "r", {.servers = 1});
  r.submit(SimTime::millis(10), {});
  r.submit(SimTime::millis(10), {});  // queued for 10ms
  sim_.run();
  EXPECT_EQ(r.queue_integral(), 10000);
}

TEST_F(ResourceTest, ClearQueueDropsWaiters) {
  Resource r(sim_, "r", {.servers = 1});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  EXPECT_EQ(r.clear_queue(), 2u);
  sim_.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(r.rejected(), 2u);
}

TEST_F(ResourceTest, EmptyCompletionAllowed) {
  Resource r(sim_, "r", {.servers = 1});
  r.submit(SimTime::millis(1), {});
  sim_.run();
  EXPECT_EQ(r.completed(), 1u);
}

TEST_F(ResourceTest, ZeroDemandJobCompletesImmediately) {
  Resource r(sim_, "r", {.servers = 1});
  bool done = false;
  r.submit(SimTime::zero(), [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.now(), SimTime::zero());
}

TEST_F(ResourceTest, CompletionMovesAtMostFourTimesOnAFreeServer) {
  // Into submit's parameter, into the service-completion closure, and with
  // that closure into its queue slot and out at pop.  The counter fits
  // Completion's 16-byte buffer, so no heap fallback hides a move.
  static_assert(Resource::Completion::stores_inline<test::MoveCounter>());
  test::MoveCounts counts;
  {
    Resource r(sim_, "r", {.servers = 1});
    r.submit(SimTime::millis(1), test::MoveCounter(&counts));
    sim_.run();
    EXPECT_EQ(r.completed(), 1u);
  }
  EXPECT_LE(counts.moves, 4);
  EXPECT_EQ(counts.runs, 1);
  EXPECT_EQ(counts.destroyed, counts.constructed);
}

}  // namespace
}  // namespace ah::sim
