#include "sim/simulator.hpp"
#include "common/analysis.hpp"

#include <algorithm>

AH_HOT_PATH_FILE;

namespace ah::sim {

std::uint64_t Simulator::run_until(common::SimTime until) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    queue_.run_next(now_);
    ++count;
  }
  // Advance the clock to the end of the window even if the queue drained
  // early, so subsequent scheduling is relative to the window boundary.
  now_ = std::max(now_, until);
  executed_ += count;
  return count;
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

bool Simulator::step() {
  AH_HOT_ENTRY;  // the event-dispatch loop: every simulated action runs here
  if (queue_.empty()) return false;
  queue_.run_next(now_);
  ++executed_;
  return true;
}

}  // namespace ah::sim
