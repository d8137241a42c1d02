#include "harmony/parameter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/fmt.hpp"

namespace ah::harmony {

ParameterSpace::ParameterSpace(std::vector<TunableParameter> parameters) {
  for (auto& p : parameters) add(std::move(p));
}

std::size_t ParameterSpace::add(TunableParameter parameter) {
  if (parameter.min_value > parameter.max_value) {
    throw std::invalid_argument(common::format(
        "parameter '{}': min {} > max {}", parameter.name,
        parameter.min_value, parameter.max_value));
  }
  if (!parameter.contains(parameter.default_value)) {
    throw std::invalid_argument(common::format(
        "parameter '{}': default {} outside [{}, {}]", parameter.name,
        parameter.default_value, parameter.min_value, parameter.max_value));
  }
  parameters_.push_back(std::move(parameter));
  return parameters_.size() - 1;
}

PointI ParameterSpace::defaults() const {
  PointI point;
  point.reserve(parameters_.size());
  for (const auto& p : parameters_) point.push_back(p.default_value);
  return point;
}

PointI ParameterSpace::project(const PointD& point) const {
  if (point.size() != parameters_.size()) {
    throw std::invalid_argument("project: arity mismatch");
  }
  PointI out(point.size());
  for (std::size_t i = 0; i < point.size(); ++i) {
    const auto rounded = static_cast<std::int64_t>(std::llround(point[i]));
    out[i] = std::clamp(rounded, parameters_[i].min_value,
                        parameters_[i].max_value);
  }
  return out;
}

PointD ParameterSpace::to_continuous(const PointI& point) {
  PointD out;
  out.reserve(point.size());
  for (const std::int64_t v : point) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace ah::harmony
