// Streaming and batch statistics used by metrics collection and reporting.
#pragma once

#include <cstddef>

#include "common/analysis.hpp"

// RunningStats::add feeds every monitor sample on the event loop.
AH_HOT_PATH_FILE;

namespace ah::common {

/// Single-pass running statistics (Welford's algorithm): mean, variance,
/// min/max over a stream of samples without storing them.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;         // population variance
  [[nodiscard]] double sample_variance() const;  // unbiased (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sample_stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially-weighted moving average, used for smoothed utilization
/// readings in the reconfiguration monitor.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x) {
    value_ = seeded_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    seeded_ = true;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool seeded() const { return seeded_; }
  void reset() { seeded_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace ah::common
