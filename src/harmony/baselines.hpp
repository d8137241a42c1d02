// Baseline tuning kernels, for comparison against the simplex.
//
// RandomSearchTuner — uniform sampling of the lattice, keeping the best.
// The weakest sensible baseline: any online tuner must beat it to justify
// its machinery.
//
// CoordinateDescentTuner — classic one-parameter-at-a-time hand-tuning,
// automated: sweep each dimension around the current point (a fixed number
// of probe values across its range), fix the best value, move to the next
// dimension, and loop with a shrinking probe radius.  This mimics what a
// careful administrator does manually and is the natural foil for the
// paper's claim that coupled systems "cannot be tuned for each individual
// component" one knob at a time.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "harmony/tuner.hpp"

namespace ah::harmony {

class RandomSearchTuner final : public Tuner {
 public:
  explicit RandomSearchTuner(ParameterSpace space, std::uint64_t seed = 1);

  [[nodiscard]] const ParameterSpace& space() const override {
    return space_;
  }
  [[nodiscard]] std::vector<PointI> pending() const override;
  [[nodiscard]] PointI ask() const override;
  void tell(double cost) override;
  [[nodiscard]] const PointI& best() const override { return best_point_; }
  [[nodiscard]] double best_cost() const override { return best_cost_; }
  [[nodiscard]] std::size_t evaluations() const override {
    return evaluations_;
  }

 private:
  void draw_next();

  ParameterSpace space_;
  common::Rng rng_;
  PointI current_;
  PointI best_point_;
  double best_cost_ = 0.0;
  bool has_best_ = false;
  std::size_t evaluations_ = 0;
};

class CoordinateDescentTuner final : public Tuner {
 public:
  /// Probe values per sweep of one dimension (including the incumbent).
  static constexpr int kProbes = 5;
  /// Initial probe radius as a fraction of each parameter's range.
  static constexpr double kInitialRadius = 0.5;
  /// Radius multiplier after every full pass over all dimensions.
  static constexpr double kRadiusDecay = 0.5;
  /// Smallest radius (fraction of range) before the search re-expands.
  static constexpr double kMinRadius = 0.01;

  explicit CoordinateDescentTuner(ParameterSpace space);

  [[nodiscard]] const ParameterSpace& space() const override {
    return space_;
  }
  [[nodiscard]] std::vector<PointI> pending() const override;
  [[nodiscard]] PointI ask() const override;
  void tell(double cost) override;
  [[nodiscard]] const PointI& best() const override { return best_point_; }
  [[nodiscard]] double best_cost() const override { return best_cost_; }
  [[nodiscard]] std::size_t evaluations() const override {
    return evaluations_;
  }

  [[nodiscard]] double radius() const { return radius_; }
  [[nodiscard]] std::size_t current_dimension() const { return dimension_; }

 private:
  /// Builds the probe list for the current dimension around incumbent_.
  void build_probes();
  /// Consumes the finished sweep: fixes the best probe, advances.
  void finish_sweep();

  ParameterSpace space_;

  PointI incumbent_;
  std::size_t dimension_ = 0;
  double radius_ = kInitialRadius;

  std::vector<PointI> probes_;
  std::vector<double> probe_costs_;
  std::size_t probe_cursor_ = 0;

  PointI best_point_;
  double best_cost_ = 0.0;
  bool has_best_ = false;
  std::size_t evaluations_ = 0;
};

}  // namespace ah::harmony
