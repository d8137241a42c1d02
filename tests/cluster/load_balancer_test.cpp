#include "cluster/load_balancer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace ah::cluster {
namespace {

/// Callbacks for picks that do not depend on one of them.
constexpr auto kNoLoad = [](std::size_t) { return 0.0; };
constexpr auto kAllUp = [](std::size_t) { return true; };

TEST(LoadBalancerTest, RoundRobinCycles) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(lb.pick(3, kNoLoad, kAllUp));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(LoadBalancerTest, RoundRobinSingleBackend) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(lb.pick(1, kNoLoad, kAllUp), 0u);
}

TEST(LoadBalancerTest, RoundRobinResetRestartsCycle) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  static_cast<void>(lb.pick(3, kNoLoad, kAllUp));
  static_cast<void>(lb.pick(3, kNoLoad, kAllUp));
  lb.reset();
  EXPECT_EQ(lb.pick(3, kNoLoad, kAllUp), 0u);
}

TEST(LoadBalancerTest, RoundRobinHandlesBackendCountChange) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  static_cast<void>(lb.pick(3, kNoLoad, kAllUp));
  static_cast<void>(lb.pick(3, kNoLoad, kAllUp));
  // Shrink to 2 backends: pick stays in range.
  for (int i = 0; i < 10; ++i) EXPECT_LT(lb.pick(2, kNoLoad, kAllUp), 2u);
}

TEST(LoadBalancerTest, LeastLoadedPicksMinimum) {
  LoadBalancer lb(BalancePolicy::kLeastLoaded);
  const std::vector<double> loads{5.0, 1.0, 3.0};
  EXPECT_EQ(lb.pick(3, [&](std::size_t i) { return loads[i]; }, kAllUp), 1u);
}

TEST(LoadBalancerTest, LeastLoadedTieBreaksToFirst) {
  LoadBalancer lb(BalancePolicy::kLeastLoaded);
  EXPECT_EQ(lb.pick(4, [](std::size_t) { return 2.0; }, kAllUp), 0u);
}

// -- Availability mask -------------------------------------------------------

TEST(LoadBalancerTest, MaskedRoundRobinSkipsUnavailable) {
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  const auto avail = [](std::size_t i) { return i != 1; };
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(lb.pick(3, kNoLoad, avail));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 2, 0, 2, 0, 2}));
}

TEST(LoadBalancerTest, MaskedRoundRobinSpreadsEvenlyOverHealthySubset) {
  // The naive fix — advance the cursor modulo n, then skip forward to the
  // next available backend — lands twice as often on the survivor that
  // follows a masked-out backend.  The cursor must count *picks*, not
  // backend indices, for an even spread.
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  const auto avail = [](std::size_t i) { return i != 2; };
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 900; ++i) ++counts[lb.pick(4, kNoLoad, avail)];
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 300);
  EXPECT_EQ(counts[1], 300);
  EXPECT_EQ(counts[3], 300);
}

TEST(LoadBalancerTest, MaskedRoundRobinUnmaskedSequenceUnchanged) {
  // While every backend is up the rotation is the plain one, and it
  // resumes unchanged once a masked-out backend returns (golden-run
  // byte-identity when fault tolerance is enabled but no fault ever
  // fires).
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(lb.pick(3, kNoLoad, kAllUp), i % 3);
  }
  const auto without_1 = [](std::size_t i) { return i != 1; };
  EXPECT_EQ(lb.pick(3, kNoLoad, without_1), 0u);  // pick 20: rank 0 of 2
  EXPECT_EQ(lb.pick(3, kNoLoad, kAllUp), 21u % 3);
}

TEST(LoadBalancerTest, MaskedLeastLoadedSkipsUnavailable) {
  LoadBalancer lb(BalancePolicy::kLeastLoaded);
  const std::vector<double> loads{5.0, 1.0, 3.0};
  EXPECT_EQ(lb.pick(
                3, [&](std::size_t i) { return loads[i]; },
                [](std::size_t i) { return i != 1; }),
            2u);
}

TEST(LoadBalancerTest, FullyMaskedFallsBackToAll) {
  // An all-false mask is ignored (callers fail fast before picking, but
  // the balancer itself must not divide by the empty subset).
  LoadBalancer lb(BalancePolicy::kRoundRobin);
  const auto none = [](std::size_t) { return false; };
  EXPECT_LT(lb.pick(3, kNoLoad, none), 3u);
}

}  // namespace
}  // namespace ah::cluster
