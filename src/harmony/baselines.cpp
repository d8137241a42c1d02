#include "harmony/baselines.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ah::harmony {

// -- RandomSearchTuner -------------------------------------------------------

RandomSearchTuner::RandomSearchTuner(ParameterSpace space, std::uint64_t seed)
    : space_(std::move(space)), rng_(seed) {
  if (space_.empty()) {
    throw std::invalid_argument("RandomSearchTuner: empty parameter space");
  }
  // First evaluation is the default configuration, matching the simplex
  // (every kernel starts from what the administrator deployed).
  current_ = space_.defaults();
}

std::vector<PointI> RandomSearchTuner::pending() const { return {current_}; }

PointI RandomSearchTuner::ask() const { return current_; }

void RandomSearchTuner::tell(double cost) {
  if (!has_best_ || cost < best_cost_) {
    has_best_ = true;
    best_cost_ = cost;
    best_point_ = current_;
  }
  ++evaluations_;
  draw_next();
}

void RandomSearchTuner::draw_next() { current_ = space_.random_point(rng_); }

// -- CoordinateDescentTuner --------------------------------------------------

CoordinateDescentTuner::CoordinateDescentTuner(ParameterSpace space)
    : space_(std::move(space)) {
  if (space_.empty()) {
    throw std::invalid_argument(
        "CoordinateDescentTuner: empty parameter space");
  }
  incumbent_ = space_.defaults();
  build_probes();
}

void CoordinateDescentTuner::build_probes() {
  probes_.clear();
  probe_costs_.clear();
  probe_cursor_ = 0;

  const auto& param = space_.parameter(dimension_);
  const double range = static_cast<double>(param.range());
  const double lo = std::max(
      static_cast<double>(param.min_value),
      static_cast<double>(incumbent_[dimension_]) - radius_ * range);
  const double hi = std::min(
      static_cast<double>(param.max_value),
      static_cast<double>(incumbent_[dimension_]) + radius_ * range);

  probes_.push_back(incumbent_);  // the incumbent is always re-probed
  static_assert(kProbes > 2, "probes spread evenly from lo to hi");
  for (int p = 0; p < kProbes - 1; ++p) {
    const double t =
        static_cast<double>(p) / static_cast<double>(kProbes - 2);
    PointI probe = incumbent_;
    probe[dimension_] = static_cast<std::int64_t>(std::llround(
        lo + t * (hi - lo)));
    probe = space_.clamp(std::move(probe));
    if (probe != incumbent_) probes_.push_back(std::move(probe));
  }
  // Degenerate ranges can collapse every probe onto the incumbent; the
  // incumbent alone still makes a valid (trivial) sweep.
}

std::vector<PointI> CoordinateDescentTuner::pending() const {
  return {probes_.begin() + static_cast<std::ptrdiff_t>(probe_cursor_),
          probes_.end()};
}

PointI CoordinateDescentTuner::ask() const {
  assert(probe_cursor_ < probes_.size());
  return probes_[probe_cursor_];
}

void CoordinateDescentTuner::tell(double cost) {
  assert(probe_cursor_ < probes_.size());
  probe_costs_.push_back(cost);
  if (!has_best_ || cost < best_cost_) {
    has_best_ = true;
    best_cost_ = cost;
    best_point_ = probes_[probe_cursor_];
  }
  ++evaluations_;
  ++probe_cursor_;
  if (probe_cursor_ == probes_.size()) finish_sweep();
}

void CoordinateDescentTuner::finish_sweep() {
  // Fix the best probe of this sweep as the new incumbent value.
  std::size_t winner = 0;
  for (std::size_t i = 1; i < probe_costs_.size(); ++i) {
    if (probe_costs_[i] < probe_costs_[winner]) winner = i;
  }
  incumbent_ = probes_[winner];

  ++dimension_;
  if (dimension_ == space_.dimensions()) {
    dimension_ = 0;
    radius_ *= kRadiusDecay;
    if (radius_ < kMinRadius) {
      // Re-expand: the environment may have shifted (online tuning never
      // stops), so periodically widen the sweeps again.
      radius_ = kInitialRadius;
    }
  }
  build_probes();
}

}  // namespace ah::harmony
