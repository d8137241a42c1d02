// Tunable parameters and the parameter space.
//
// Active Harmony treats each tunable parameter as one dimension of a
// bounded integer lattice.  A ParameterSpace is an ordered list of such
// dimensions; configurations are integer vectors in lattice order.  The
// space also owns the continuous→lattice projection (round + clamp) that
// adapts the Nelder–Mead simplex to this discrete domain (paper §II.B).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ah::harmony {

struct TunableParameter {
  std::string name;
  std::int64_t min_value = 0;
  std::int64_t max_value = 0;
  std::int64_t default_value = 0;

  [[nodiscard]] std::int64_t range() const { return max_value - min_value; }
  [[nodiscard]] bool contains(std::int64_t v) const {
    return v >= min_value && v <= max_value;
  }
};

/// An integer configuration, in parameter-space order.
using PointI = std::vector<std::int64_t>;
/// A continuous point (internal simplex representation).
using PointD = std::vector<double>;

class ParameterSpace {
 public:
  ParameterSpace() = default;
  explicit ParameterSpace(std::vector<TunableParameter> parameters);

  /// Appends a dimension; returns its index.
  /// Throws std::invalid_argument when bounds are inverted or the default
  /// is out of bounds.
  std::size_t add(TunableParameter parameter);

  [[nodiscard]] std::size_t dimensions() const { return parameters_.size(); }
  [[nodiscard]] bool empty() const { return parameters_.empty(); }
  [[nodiscard]] const TunableParameter& parameter(std::size_t i) const {
    return parameters_.at(i);
  }
  /// The default configuration.
  [[nodiscard]] PointI defaults() const;

  /// Projects a continuous point onto the lattice: nearest integer, clamped
  /// to bounds (the paper's adaptation of Nelder–Mead to discrete spaces).
  [[nodiscard]] PointI project(const PointD& point) const;

  /// Converts to the continuous representation.
  [[nodiscard]] static PointD to_continuous(const PointI& point);

 private:
  std::vector<TunableParameter> parameters_;
};

}  // namespace ah::harmony
