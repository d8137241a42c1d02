#include "harmony/session.hpp"

#include <algorithm>
#include <cmath>

namespace ah::harmony {

TuningSession::TuningSession(std::string name, ParameterSpace space,
                             SessionOptions options)
    : name_(std::move(name)), tuner_(std::move(space), options.simplex) {}

void TuningSession::tell(double cost) {
  observe(tuner_.ask(), cost);
  tuner_.tell(cost);
}

void TuningSession::observe(const PointI& configuration, double cost) {
  history_.push_back(HistoryEntry{configuration, cost});
  const std::size_t index = history_.size() - 1;
  if (!has_best_) {
    has_best_ = true;
    best_seen_ = cost;
    last_improvement_ = index;
    return;
  }
  // Relative improvement against the best seen so far.  Costs may be
  // negative (negated WIPS), so normalize by magnitude.
  const double scale = std::max(1e-12, std::abs(best_seen_));
  if ((best_seen_ - cost) / scale > kImprovementEpsilon) {
    best_seen_ = cost;
    last_improvement_ = index;
  }
}

std::optional<std::size_t> TuningSession::converged_at() const {
  if (!has_best_) return std::nullopt;
  if (history_.size() - 1 - last_improvement_ >= kPatience) {
    return last_improvement_;
  }
  return std::nullopt;
}

}  // namespace ah::harmony
