// A tuning session: one SimplexTuner plus the bookkeeping the experiments
// need — per-iteration history, best-so-far tracking, and the
// "iterations to converge" figure reported in the paper's Table 4.
//
// Convergence is declared when the best cost has not improved by more than
// kImprovementEpsilon (relative) for kPatience consecutive evaluations;
// the convergence iteration is the evaluation index of the last
// improvement.  The session never stops proposing points (Active Harmony
// tunes continuously); convergence is purely an observation.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "harmony/parameter.hpp"
#include "harmony/simplex.hpp"

namespace ah::harmony {

struct SessionOptions {
  SimplexOptions simplex;
};

class TuningSession {
 public:
  struct HistoryEntry {
    PointI configuration;
    double cost = 0.0;
  };

  /// Relative improvement below which an evaluation does not reset the
  /// convergence clock.
  static constexpr double kImprovementEpsilon = 0.01;
  /// Evaluations without improvement after which the session counts as
  /// converged.
  static constexpr std::size_t kPatience = 25;

  TuningSession(std::string name, ParameterSpace space,
                SessionOptions options = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ParameterSpace& space() const { return tuner_.space(); }

  /// Ask/tell protocol (see SimplexTuner).
  [[nodiscard]] PointI ask() const { return tuner_.ask(); }
  void tell(double cost);

  [[nodiscard]] const PointI& best() const { return tuner_.best(); }
  [[nodiscard]] double best_cost() const { return tuner_.best_cost(); }

  [[nodiscard]] const std::vector<HistoryEntry>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t evaluations() const { return history_.size(); }

  /// Evaluation index of the last significant improvement, once the session
  /// has gone kPatience evaluations without one.
  [[nodiscard]] std::optional<std::size_t> converged_at() const;

 private:
  void observe(const PointI& configuration, double cost);

  std::string name_;
  SimplexTuner tuner_;
  std::vector<HistoryEntry> history_;

  double best_seen_ = 0.0;
  bool has_best_ = false;
  std::size_t last_improvement_ = 0;
};

}  // namespace ah::harmony
