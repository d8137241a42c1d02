#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/move_counter.hpp"
#include "common/rng.hpp"

namespace ah::sim {
namespace {

using common::SimTime;

class ResourceTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(ResourceTest, SingleJobCompletesAfterDemand) {
  Resource r(sim_, "r", 1);
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, SimTime::millis(10));
  EXPECT_EQ(r.completed(), 1u);
}

TEST_F(ResourceTest, FifoQueueing) {
  Resource r(sim_, "r", 1);
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
  Resource r(sim_, "r", 2);
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  sim_.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(sim_.now(), SimTime::millis(10));  // parallel, not 20
}

TEST_F(ResourceTest, SlowdownScalesServiceTime) {
  Resource r(sim_, "r", 1);
  r.set_slowdown(2.0);
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, SimTime::millis(20));
}

TEST_F(ResourceTest, SlowdownChangeAffectsNewJobsOnly) {
  Resource r(sim_, "r", 1);
  std::vector<SimTime> done;
  r.submit(SimTime::millis(10), [&] { done.push_back(sim_.now()); });
  r.set_slowdown(3.0);
  r.submit(SimTime::millis(10), [&] { done.push_back(sim_.now()); });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::millis(10));  // started before the change
  EXPECT_EQ(done[1], SimTime::millis(40));  // 10 + 10*3
}

TEST_F(ResourceTest, BusyIntegralTracksUtilization) {
  Resource r(sim_, "r", 2);
  r.submit(SimTime::millis(10), {});
  r.submit(SimTime::millis(10), {});
  sim_.run_until(SimTime::millis(20));
  // 2 servers busy for 10ms each = 20'000 server-us.
  EXPECT_EQ(r.busy_integral(), 20000);
}

TEST_F(ResourceTest, UtilizationSinceWindow) {
  Resource r(sim_, "r", 1);
  const auto integral0 = r.busy_integral();
  const auto t0 = sim_.now();
  r.submit(SimTime::millis(5), {});
  sim_.run_until(SimTime::millis(10));
  EXPECT_NEAR(r.utilization_since(integral0, t0), 0.5, 1e-9);
}

TEST_F(ResourceTest, UtilizationZeroWindow) {
  Resource r(sim_, "r", 1);
  EXPECT_EQ(r.utilization_since(0, sim_.now()), 0.0);
}

TEST_F(ResourceTest, QueueIntegralAccumulates) {
  Resource r(sim_, "r", 1);
  r.submit(SimTime::millis(10), {});
  r.submit(SimTime::millis(10), {});  // queued for 10ms
  sim_.run();
  EXPECT_EQ(r.queue_integral(), 10000);
}

TEST_F(ResourceTest, ClearQueueDropsWaiters) {
  Resource r(sim_, "r", 1);
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
  Resource r(sim_, "r", 1);
  r.submit(SimTime::millis(1), {});
  sim_.run();
  EXPECT_EQ(r.completed(), 1u);
}

TEST_F(ResourceTest, ZeroDemandJobCompletesImmediately) {
  Resource r(sim_, "r", 1);
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
    Resource r(sim_, "r", 1);
    r.submit(SimTime::millis(1), test::MoveCounter(&counts));
    sim_.run();
    EXPECT_EQ(r.completed(), 1u);
  }
  EXPECT_LE(counts.moves, 4);
  EXPECT_EQ(counts.runs, 1);
  EXPECT_EQ(counts.destroyed, counts.constructed);
}

/// Erlang-C mean wait in queue (seconds) of an M/M/c system with arrival
/// rate `lambda` and per-server service rate `mu` (lambda < c * mu).
double erlang_c_wait(int c, double lambda, double mu) {
  const double a = lambda / mu;  // offered load, in erlangs
  double term = 1.0;             // a^k / k!
  double below_c = 0.0;
  for (int k = 0; k < c; ++k) {
    below_c += term;
    term *= a / static_cast<double>(k + 1);
  }
  const double at_c = term / (1.0 - a / static_cast<double>(c));
  const double p_wait = at_c / (below_c + at_c);
  return p_wait / (static_cast<double>(c) * mu - lambda);
}

/// Poisson arrivals with exponential service demands into a Resource.
/// Each arrival submits its job and schedules the next; a completing job
/// adds its wait (service start minus arrival) to the total.
class MmcSource {
 public:
  MmcSource(Simulator& sim, Resource& resource, double lambda, double mu,
            std::uint64_t seed, std::size_t jobs)
      : sim_(sim),
        resource_(resource),
        mean_gap_(1.0 / lambda),
        mean_demand_(1.0 / mu),
        rng_(seed),
        jobs_(jobs) {
    sim_.schedule(SimTime::zero(), [this] { arrive(); });
  }
  // Scheduled events hold `this`.
  MmcSource(const MmcSource&) = delete;
  MmcSource& operator=(const MmcSource&) = delete;

  [[nodiscard]] std::int64_t total_wait_us() const { return wait_us_; }

 private:
  void arrive() {
    const SimTime demand = SimTime::seconds(rng_.exponential(mean_demand_));
    // Service ends `demand` after it starts: whatever lies beyond
    // arrival + demand was spent waiting.
    resource_.submit(demand, [this, due = sim_.now() + demand] {
      wait_us_ += (sim_.now() - due).as_micros();
    });
    if (++issued_ < jobs_) {
      sim_.schedule(SimTime::seconds(rng_.exponential(mean_gap_)),
                    [this] { arrive(); });
    }
  }

  Simulator& sim_;
  Resource& resource_;
  double mean_gap_;
  double mean_demand_;
  common::Rng rng_;
  std::size_t jobs_;
  std::size_t issued_ = 0;
  std::int64_t wait_us_ = 0;
};

TEST(ResourceQueueingTest, MeanWaitMatchesErlangC) {
  // The analytic oracle for the queueing substrate: under Poisson arrivals
  // and exponential service, a c-server Resource is an M/M/c queue, whose
  // mean wait Erlang C gives in closed form.
  struct Case {
    int servers;
    double lambda;
    double mu;
  };
  constexpr Case kCases[] = {
      {1, 70.0, 100.0}, {2, 160.0, 100.0}, {4, 300.0, 100.0}};
  constexpr std::size_t kJobs = 200'000;
  for (const Case& c : kCases) {
    SCOPED_TRACE(::testing::Message() << "c=" << c.servers);
    Simulator sim;
    Resource resource(sim, "mmc", c.servers);
    MmcSource source(sim, resource, c.lambda, c.mu, /*seed=*/2004, kJobs);
    sim.run();
    ASSERT_EQ(resource.completed(), kJobs);

    const double mean_wait =
        static_cast<double>(source.total_wait_us()) * 1e-6 /
        static_cast<double>(kJobs);
    const double expected = erlang_c_wait(c.servers, c.lambda, c.mu);
    EXPECT_NEAR(mean_wait / expected, 1.0, 0.10)
        << "mean wait " << mean_wait * 1e3 << " ms, Erlang C "
        << expected * 1e3 << " ms";
    // Little's law on the sample path: every microsecond a job waits is
    // one job-microsecond of queue, so the two sums agree exactly.
    EXPECT_EQ(source.total_wait_us(), resource.queue_integral());
  }
}

}  // namespace
}  // namespace ah::sim
