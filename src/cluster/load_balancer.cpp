#include "cluster/load_balancer.hpp"
#include "common/analysis.hpp"

#include <cassert>
#include <limits>

AH_HOT_PATH_FILE;

namespace ah::cluster {

namespace {

/// Number of backends the mask admits.
std::size_t available_count(std::size_t n, LoadBalancer::AvailFn avail) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (avail(i)) ++count;
  }
  return count;
}

/// Index of the `rank`-th available backend (rank < available count).
std::size_t nth_available(std::size_t n, LoadBalancer::AvailFn avail,
                          std::size_t rank) {
  for (std::size_t i = 0; i < n; ++i) {
    if (avail(i) && rank-- == 0) return i;
  }
  assert(false && "rank out of range");
  return 0;
}

}  // namespace

std::size_t LoadBalancer::pick(std::size_t n, LoadFn load, AvailFn avail) {
  assert(n > 0);
  // A mask that admits nobody is degenerate: ignore it rather than spin.
  // Routers fail fast before picking when the whole tier is marked down.
  const std::size_t h = available_count(n, avail);
  const bool masked = h > 0 && h < n;
  switch (policy_) {
    case BalancePolicy::kRoundRobin: {
      // The cursor counts *picks*, not backend slots: the choice is the
      // (next_ mod h)-th healthy backend.  Each healthy backend therefore
      // receives exactly every h-th request even while others are skipped,
      // and when the mask clears (h == n) the sequence is identical to the
      // unmasked rotation.
      const std::size_t count = masked ? h : n;
      const std::size_t rank = next_ % count;
      ++next_;
      return masked ? nth_available(n, avail, rank) : rank;
    }
    case BalancePolicy::kLeastLoaded: {
      std::size_t best = 0;
      double best_load = std::numeric_limits<double>::max();
      for (std::size_t i = 0; i < n; ++i) {
        if (masked && !avail(i)) continue;
        const double l = load(i);
        if (l < best_load) {
          best_load = l;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

}  // namespace ah::cluster
