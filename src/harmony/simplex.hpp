// Integer-adapted Nelder–Mead simplex tuner (paper §II.B).
//
// The Active Harmony adaptation controller searches the configuration space
// with the Nelder–Mead simplex method, adapted to this domain in two ways:
//
//   1. The objective is only defined on a bounded integer lattice, so every
//      proposed continuous point is *projected* (rounded and clamped) before
//      evaluation, and the measured cost stands in for the continuous value
//      ("simply using the resulting values from the nearest integer point").
//   2. Evaluation is external and asynchronous — one evaluation is one
//      measured iteration of the running system — so the tuner exposes an
//      ask/tell protocol rather than taking a callback.  pending() shows
//      every point of the current step (the whole initial simplex, or all
//      shrink replacements); ask() hands them out one at a time.
//
// Costs are minimized; callers maximizing a metric (WIPS) report its
// negation.  The optional extreme-value damping implements the improvement
// the paper proposes in §III.A: proposals that clamp against parameter
// bounds are pulled back toward the centroid instead of sitting on the
// boundary.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "harmony/parameter.hpp"

namespace ah::harmony {

struct SimplexOptions {
  /// Pull bound-clamped proposals toward the centroid (paper §III.A
  /// "slowly approach extreme values" future-work idea; see the ablation
  /// bench).
  bool damp_extremes = false;
};

class SimplexTuner {
 public:
  enum class Phase {
    kInit,             // evaluating the initial simplex
    kReflect,          // evaluating a reflection point
    kExpand,           // evaluating an expansion point
    kContract,         // evaluating a contraction point
    kShrink,           // evaluating shrink replacements
  };

  SimplexTuner(ParameterSpace space, SimplexOptions options = {});

  SimplexTuner(const SimplexTuner&) = delete;
  SimplexTuner& operator=(const SimplexTuner&) = delete;

  [[nodiscard]] const ParameterSpace& space() const { return space_; }
  [[nodiscard]] Phase phase() const { return phase_; }

  /// All lattice points currently awaiting evaluation (never empty).
  [[nodiscard]] std::vector<PointI> pending() const;
  /// Next single point to evaluate.
  [[nodiscard]] PointI ask() const;
  /// Cost for the point returned by the previous ask().
  void tell(double cost);

  /// Best lattice point seen so far and its cost.  Valid once at least one
  /// cost has been reported.
  [[nodiscard]] const PointI& best() const { return best_point_; }
  [[nodiscard]] double best_cost() const { return best_cost_; }

  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }
  /// Simplex diameter (max vertex distance in normalized coordinates);
  /// a convergence indicator.
  [[nodiscard]] double diameter() const;

 private:
  struct Vertex {
    PointD x;
    double cost = 0.0;
  };

  /// Projects, optionally damping bound-clamped coordinates toward the
  /// centroid `c`.
  [[nodiscard]] PointD propose(const PointD& raw, const PointD& centroid) const;
  void queue_point(PointD x);
  void advance();
  void sort_vertices();
  [[nodiscard]] PointD centroid_excluding_worst() const;
  void note_best(const PointD& x, double cost);
  void begin_reflection();

  ParameterSpace space_;
  SimplexOptions options_;

  std::vector<Vertex> vertices_;  // sorted by cost ascending once built
  Phase phase_ = Phase::kInit;

  // Points awaiting evaluation, with filled costs.
  std::vector<PointD> pending_points_;
  std::vector<std::optional<double>> pending_costs_;
  std::size_t ask_cursor_ = 0;

  // Step context.
  PointD centroid_;
  PointD reflected_;
  double reflected_cost_ = 0.0;

  PointI best_point_;
  double best_cost_ = 0.0;
  bool has_best_ = false;
  std::size_t evaluations_ = 0;
};

}  // namespace ah::harmony
