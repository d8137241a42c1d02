#include "harmony/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ah::harmony {

namespace {

// Nelder–Mead coefficients.
constexpr double kReflection = 1.0;   // alpha
constexpr double kExpansion = 2.0;    // gamma
constexpr double kContraction = 0.5;  // beta
constexpr double kShrink = 0.5;       // delta
/// Initial vertex offset as a fraction of each parameter's range (at least
/// one lattice step).
constexpr double kInitScale = 0.25;
/// Blend factor toward the centroid when damping extremes (0 = no move,
/// 1 = full collapse onto the centroid).
constexpr double kDampFactor = 0.5;

PointD axpy(const PointD& base, double factor, const PointD& direction_from,
            const PointD& direction_to) {
  // base + factor * (direction_to - direction_from)
  PointD out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = base[i] + factor * (direction_to[i] - direction_from[i]);
  }
  return out;
}

}  // namespace

SimplexTuner::SimplexTuner(ParameterSpace space, SimplexOptions options)
    : space_(std::move(space)), options_(options) {
  if (space_.empty()) {
    throw std::invalid_argument("SimplexTuner: empty parameter space");
  }

  // Initial simplex: the default configuration plus one vertex per
  // dimension, offset by kInitScale x range (>= 1 lattice step), flipped
  // toward the side with room.
  const PointI defaults = space_.defaults();
  const PointD d0 = ParameterSpace::to_continuous(defaults);
  queue_point(d0);
  for (std::size_t dim = 0; dim < space_.dimensions(); ++dim) {
    const auto& param = space_.parameter(dim);
    double delta = std::max(
        1.0, kInitScale * static_cast<double>(param.range()));
    if (d0[dim] + delta > static_cast<double>(param.max_value)) {
      delta = -delta;
    }
    PointD v = d0;
    v[dim] += delta;
    queue_point(std::move(v));
  }
}

std::vector<PointI> SimplexTuner::pending() const {
  std::vector<PointI> out;
  out.reserve(pending_points_.size());
  for (const auto& p : pending_points_) out.push_back(space_.project(p));
  return out;
}

PointI SimplexTuner::ask() const {
  assert(ask_cursor_ < pending_points_.size());
  return space_.project(pending_points_[ask_cursor_]);
}

void SimplexTuner::tell(double cost) {
  assert(ask_cursor_ < pending_points_.size());
  pending_costs_[ask_cursor_] = cost;
  note_best(pending_points_[ask_cursor_], cost);
  ++evaluations_;
  ++ask_cursor_;
  if (ask_cursor_ == pending_points_.size()) advance();
}

double SimplexTuner::diameter() const {
  if (vertices_.size() < 2) return 0.0;
  double diameter = 0.0;
  for (std::size_t a = 0; a < vertices_.size(); ++a) {
    for (std::size_t b = a + 1; b < vertices_.size(); ++b) {
      double dist2 = 0.0;
      for (std::size_t i = 0; i < space_.dimensions(); ++i) {
        const double range =
            std::max<double>(1.0, static_cast<double>(space_.parameter(i).range()));
        const double d = (vertices_[a].x[i] - vertices_[b].x[i]) / range;
        dist2 += d * d;
      }
      diameter = std::max(diameter, std::sqrt(dist2));
    }
  }
  return diameter;
}

PointD SimplexTuner::propose(const PointD& raw, const PointD& centroid) const {
  if (!options_.damp_extremes) return raw;
  // Pull bound-clamped coordinates toward the centroid so the simplex
  // approaches boundaries gradually instead of jumping onto them.
  PointD out = raw;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& param = space_.parameter(i);
    const auto lo = static_cast<double>(param.min_value);
    const auto hi = static_cast<double>(param.max_value);
    if (out[i] < lo || out[i] > hi) {
      const double clamped = std::clamp(out[i], lo, hi);
      out[i] = centroid[i] + kDampFactor * (clamped - centroid[i]);
    }
  }
  return out;
}

void SimplexTuner::queue_point(PointD x) {
  pending_points_.push_back(std::move(x));
  pending_costs_.push_back(std::nullopt);
}

void SimplexTuner::sort_vertices() {
  std::stable_sort(vertices_.begin(), vertices_.end(),
                   [](const Vertex& a, const Vertex& b) {
                     return a.cost < b.cost;
                   });
}

PointD SimplexTuner::centroid_excluding_worst() const {
  PointD c(space_.dimensions(), 0.0);
  const std::size_t n = vertices_.size() - 1;  // all but worst
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < c.size(); ++i) c[i] += vertices_[v].x[i];
  }
  for (double& value : c) value /= static_cast<double>(n);
  return c;
}

void SimplexTuner::note_best(const PointD& x, double cost) {
  if (!has_best_ || cost < best_cost_) {
    has_best_ = true;
    best_cost_ = cost;
    best_point_ = space_.project(x);
  }
}

void SimplexTuner::begin_reflection() {
  sort_vertices();
  centroid_ = centroid_excluding_worst();
  const PointD& worst = vertices_.back().x;
  PointD xr = axpy(centroid_, kReflection, worst, centroid_);
  phase_ = Phase::kReflect;
  pending_points_.clear();
  pending_costs_.clear();
  ask_cursor_ = 0;
  queue_point(propose(xr, centroid_));
}

void SimplexTuner::advance() {
  switch (phase_) {
    case Phase::kInit: {
      vertices_.reserve(pending_points_.size());
      for (std::size_t i = 0; i < pending_points_.size(); ++i) {
        vertices_.push_back(
            Vertex{std::move(pending_points_[i]), *pending_costs_[i]});
      }
      begin_reflection();
      return;
    }
    case Phase::kReflect: {
      reflected_ = pending_points_[0];
      reflected_cost_ = *pending_costs_[0];
      const double best = vertices_.front().cost;
      const double second_worst = vertices_[vertices_.size() - 2].cost;
      const double worst = vertices_.back().cost;
      if (reflected_cost_ < best) {
        // Try to expand further along the same direction.
        PointD xe = axpy(centroid_, kExpansion, vertices_.back().x,
                         centroid_);
        phase_ = Phase::kExpand;
        pending_points_.clear();
        pending_costs_.clear();
        ask_cursor_ = 0;
        queue_point(propose(xe, centroid_));
        return;
      }
      if (reflected_cost_ < second_worst) {
        vertices_.back() = Vertex{reflected_, reflected_cost_};
        begin_reflection();
        return;
      }
      // Contract: outside toward the reflected point when it improved on
      // the worst, inside toward the worst otherwise.
      const PointD& towards =
          reflected_cost_ < worst ? reflected_ : vertices_.back().x;
      PointD xc = axpy(centroid_, kContraction, centroid_, towards);
      phase_ = Phase::kContract;
      pending_points_.clear();
      pending_costs_.clear();
      ask_cursor_ = 0;
      queue_point(propose(xc, centroid_));
      return;
    }
    case Phase::kExpand: {
      const double expanded_cost = *pending_costs_[0];
      if (expanded_cost < reflected_cost_) {
        vertices_.back() = Vertex{pending_points_[0], expanded_cost};
      } else {
        vertices_.back() = Vertex{reflected_, reflected_cost_};
      }
      begin_reflection();
      return;
    }
    case Phase::kContract: {
      const double contracted_cost = *pending_costs_[0];
      const double reference = std::min(reflected_cost_, vertices_.back().cost);
      if (contracted_cost < reference) {
        vertices_.back() = Vertex{pending_points_[0], contracted_cost};
        begin_reflection();
        return;
      }
      // Multiple contraction (shrink) toward the best vertex.
      phase_ = Phase::kShrink;
      pending_points_.clear();
      pending_costs_.clear();
      ask_cursor_ = 0;
      const PointD& x0 = vertices_.front().x;
      for (std::size_t v = 1; v < vertices_.size(); ++v) {
        PointD xs = axpy(x0, kShrink, x0, vertices_[v].x);
        queue_point(std::move(xs));
      }
      return;
    }
    case Phase::kShrink: {
      for (std::size_t i = 0; i < pending_points_.size(); ++i) {
        vertices_[i + 1] =
            Vertex{std::move(pending_points_[i]), *pending_costs_[i]};
      }
      begin_reflection();
      return;
    }
  }
}

}  // namespace ah::harmony
