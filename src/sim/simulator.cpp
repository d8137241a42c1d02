#include "sim/simulator.hpp"
#include "common/analysis.hpp"

#include <algorithm>

AH_HOT_PATH_FILE;

namespace ah::sim {

std::uint64_t Simulator::run_until(common::SimTime until) {
  const std::uint64_t before = executed_;
  while (!queue_.empty() && queue_.next_time() <= until) {
    // Counted before it runs, so an event that throws is counted too.
    ++executed_;
    queue_.run_next(now_);
  }
  // Advance the clock to the end of the window even if the queue drained
  // early, so subsequent scheduling is relative to the window boundary.
  now_ = std::max(now_, until);
  return executed_ - before;
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

bool Simulator::step() {
  AH_HOT_ENTRY;  // the event-dispatch loop: every simulated action runs here
  if (queue_.empty()) return false;
  ++executed_;
  queue_.run_next(now_);
  return true;
}

}  // namespace ah::sim
