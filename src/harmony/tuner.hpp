// Abstract tuning kernel.
//
// The Adaptation Controller's kernel is pluggable: the paper uses the
// Nelder-Mead simplex (harmony/simplex.hpp), and related systems it cites
// (Nimrod/O) swap in other search strategies.  This interface is what the
// TuningSession drives; two reference baselines (random search and
// coordinate descent) live in harmony/baselines.hpp and are compared
// against the simplex in `bench_ablation_kernels`.
//
// Protocol (identical to SimplexTuner's):
//   * pending() lists >= 1 lattice points awaiting evaluation (the kernel's
//     current step, for inspection);
//   * ask() returns the next one; tell(cost) reports it (lower is better).
#pragma once

#include <vector>

#include "harmony/parameter.hpp"

namespace ah::harmony {

class Tuner {
 public:
  virtual ~Tuner() = default;

  [[nodiscard]] virtual const ParameterSpace& space() const = 0;

  [[nodiscard]] virtual std::vector<PointI> pending() const = 0;
  [[nodiscard]] virtual PointI ask() const = 0;
  virtual void tell(double cost) = 0;

  [[nodiscard]] virtual const PointI& best() const = 0;
  [[nodiscard]] virtual double best_cost() const = 0;
  [[nodiscard]] virtual std::size_t evaluations() const = 0;
};

}  // namespace ah::harmony
