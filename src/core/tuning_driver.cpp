#include "core/tuning_driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/fmt.hpp"
#include "common/stats.hpp"

namespace ah::core {

std::string_view tuning_method_name(TuningMethod method) {
  switch (method) {
    case TuningMethod::kNone:         return "None (No Tuning)";
    case TuningMethod::kDefault:      return "Default method";
    case TuningMethod::kDuplication:  return "Parameter duplication";
    case TuningMethod::kPartitioning: return "Parameter partitioning";
  }
  return "?";
}

namespace {

/// Throws std::invalid_argument unless `size` values make one candidate in
/// `method` layout for `system`: one 23-value catalogue vector
/// (kNone/kDuplication), every node's tier slice (kDefault), or one
/// catalogue vector per work line (kPartitioning).
void check_layout(SystemModel& system, TuningMethod method,
                  std::size_t size) {
  std::size_t expected = webstack::parameter_catalogue().size();
  if (method == TuningMethod::kDefault) {
    expected = 0;
    for (const cluster::NodeId node : system.all_nodes()) {
      expected +=
          webstack::catalogue_indices_for(system.cluster().tier_of(node))
              .size();
    }
  } else if (method == TuningMethod::kPartitioning) {
    expected *= system.line_count();
  }
  if (size != expected) {
    throw std::invalid_argument(common::format(
        "{}: expected {} values, got {}", tuning_method_name(method),
        expected, size));
  }
}

}  // namespace

void apply_method_values(SystemModel& system, TuningMethod method,
                         std::span<const std::int64_t> values) {
  check_layout(system, method, values.size());
  const std::size_t catalogue_size = webstack::parameter_catalogue().size();
  switch (method) {
    case TuningMethod::kNone:
    case TuningMethod::kDuplication:
      system.apply_values_all(values);
      return;
    case TuningMethod::kDefault: {
      // Per-node tier slices, nodes in creation order — the same order
      // build_sessions registered them.
      std::size_t offset = 0;
      for (const cluster::NodeId node : system.all_nodes()) {
        const auto tier = system.cluster().tier_of(node);
        const auto indices = webstack::catalogue_indices_for(tier);
        harmony::PointI full = webstack::default_values();
        for (std::size_t i = 0; i < indices.size(); ++i) {
          full[indices[i]] = values[offset + i];
        }
        system.apply_values_to_node(node, full);
        offset += indices.size();
      }
      return;
    }
    case TuningMethod::kPartitioning:
      for (std::size_t line = 0; line < system.line_count(); ++line) {
        system.apply_values_line(line,
                                 values.subspan(line * catalogue_size,
                                                catalogue_size));
      }
      return;
  }
}

double TuningResult::mean_wips(std::size_t from, std::size_t to) const {
  common::RunningStats stats;
  for (std::size_t i = from; i < to && i < wips_series.size(); ++i) {
    stats.add(wips_series[i]);
  }
  return stats.mean();
}

double TuningResult::stddev_wips(std::size_t from, std::size_t to) const {
  common::RunningStats stats;
  for (std::size_t i = from; i < to && i < wips_series.size(); ++i) {
    stats.add(wips_series[i]);
  }
  return stats.sample_stddev();
}

TuningDriver::TuningDriver(SystemModel& system, Experiment& experiment,
                           Options options)
    : system_(system), experiment_(experiment), options_(options) {
  build_sessions();
}

namespace {

harmony::TunableParameter to_tunable(const webstack::ParamSpec& spec,
                                     const std::string& prefix) {
  return harmony::TunableParameter{prefix + spec.name, spec.min_value,
                                   spec.max_value, spec.default_value};
}

}  // namespace

void TuningDriver::build_sessions() {
  const auto& catalogue = webstack::parameter_catalogue();
  switch (options_.method) {
    case TuningMethod::kNone:
      break;
    case TuningMethod::kDefault: {
      // One global session: every node contributes its tier's slice.
      const auto id = server_.create_session("default", options_.session);
      for (const cluster::NodeId node : system_.all_nodes()) {
        const auto tier = system_.cluster().tier_of(node);
        for (const std::size_t ci : webstack::catalogue_indices_for(tier)) {
          server_.register_parameter(
              id, to_tunable(catalogue[ci], common::format("node{}.", node)));
        }
      }
      server_.start(id);
      sessions_.push_back(id);
      break;
    }
    case TuningMethod::kDuplication: {
      const auto id = server_.create_session("duplication", options_.session);
      for (const auto& spec : catalogue) {
        server_.register_parameter(id, to_tunable(spec, ""));
      }
      server_.start(id);
      sessions_.push_back(id);
      break;
    }
    case TuningMethod::kPartitioning: {
      for (std::size_t line = 0; line < system_.line_count(); ++line) {
        const auto id = server_.create_session(
            common::format("workline{}", line), options_.session);
        for (const auto& spec : catalogue) {
          server_.register_parameter(id, to_tunable(spec, ""));
        }
        server_.start(id);
        sessions_.push_back(id);
      }
      break;
    }
  }
}

void TuningDriver::apply_pending() {
  switch (options_.method) {
    case TuningMethod::kNone:
      return;
    case TuningMethod::kDefault:
    case TuningMethod::kDuplication:
      apply_method_values(system_, options_.method,
                          server_.get_configuration(sessions_[0]));
      return;
    case TuningMethod::kPartitioning:
      for (std::size_t line = 0; line < sessions_.size(); ++line) {
        system_.apply_values_line(line,
                                  server_.get_configuration(sessions_[line]));
      }
      return;
  }
}

void TuningDriver::report(const IterationResult& result) {
  switch (options_.method) {
    case TuningMethod::kNone:
      return;
    case TuningMethod::kDefault:
    case TuningMethod::kDuplication:
      server_.report_performance(sessions_[0], result.wips);
      return;
    case TuningMethod::kPartitioning:
      for (std::size_t line = 0; line < sessions_.size(); ++line) {
        server_.report_performance(sessions_[line],
                                   result.line_wips.at(line));
      }
      return;
  }
}

harmony::PointI TuningDriver::concatenated_best() const {
  harmony::PointI best;
  for (const auto id : sessions_) {
    const harmony::PointI part = server_.best_configuration(id);
    best.insert(best.end(), part.begin(), part.end());
  }
  return best;
}

void TuningDriver::explore(TuningResult& result, std::size_t iterations) {
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    apply_pending();
    IterationResult measured = experiment_.run_iteration();
    if (measured.disturbed) {
      // A fault/health transition overlapped the window: the reading
      // reflects the disturbance, not the candidate.  Discard and
      // re-measure once; if the fault persists the second reading is used
      // anyway so a flapping node cannot stall the search.
      ++result.discarded_windows;
      measured = experiment_.run_iteration();
    }
    result.wips_series.push_back(measured.wips);
    report(measured);
  }
}

void TuningDriver::finalize(TuningResult& result,
                            std::size_t validation_iterations) {
  std::optional<std::size_t> converged = 0;
  for (const auto id : sessions_) {
    const auto c = server_.converged_at(id);
    if (!c.has_value()) {
      converged = std::nullopt;
    } else if (converged.has_value()) {
      converged = std::max(*converged, *c);
    }
  }
  result.converged_at = converged;

  if (validation_iterations == 0 ||
      options_.method == TuningMethod::kPartitioning) {
    // Partitioned sessions are validated as one concatenated candidate
    // below when requested; without validation fall back to the raw best.
    result.best_configuration = concatenated_best();
    double best = 0.0;
    for (const auto id : sessions_) best += server_.best_performance(id);
    result.best_wips = best;
    if (validation_iterations > 0) {
      apply_configuration(result.best_configuration);
      double validated = 0.0;
      for (std::size_t i = 0; i <= validation_iterations; ++i) {
        const double wips = experiment_.run_iteration().wips;
        if (i > 0) validated += wips;  // first post-switch iteration settles
      }
      result.validated_wips =
          validated / static_cast<double>(validation_iterations);
    } else {
      result.validated_wips = result.best_wips;
    }
    return;
  }

  // Validation pass: the top distinct candidates from the session history
  // are re-measured back-to-back on the live system.  One raw in-run
  // observation can be inflated by state carried over from the previous
  // iteration (e.g. a queue backlog draining), so the raw argmax is not
  // trusted on its own.
  const auto& history = server_.session(sessions_[0]).history();
  std::vector<std::pair<double, const harmony::PointI*>> ranked;
  ranked.reserve(history.size());
  for (const auto& entry : history) {
    ranked.emplace_back(entry.cost, &entry.configuration);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;  // lower cost first
                   });
  std::vector<harmony::PointI> candidates;
  for (const auto& [cost, config] : ranked) {
    if (candidates.size() >= 3) break;
    if (std::find(candidates.begin(), candidates.end(), *config) ==
        candidates.end()) {
      candidates.push_back(*config);
    }
  }

  double best_validated = -1.0;
  for (const auto& candidate : candidates) {
    apply_configuration(candidate);
    double validated = 0.0;
    for (std::size_t i = 0; i <= validation_iterations; ++i) {
      const double wips = experiment_.run_iteration().wips;
      if (i > 0) validated += wips;
    }
    validated /= static_cast<double>(validation_iterations);
    if (validated > best_validated) {
      best_validated = validated;
      result.best_configuration = candidate;
    }
  }
  result.best_wips = server_.best_performance(sessions_[0]);
  result.validated_wips = best_validated;
}

TuningResult TuningDriver::run(std::size_t iterations,
                               std::size_t validation_iterations) {
  TuningResult result;
  result.wips_series.reserve(iterations);

  explore(result, iterations);
  if (options_.method == TuningMethod::kNone) {
    result.best_configuration = webstack::default_values();
    result.best_wips = result.mean_wips(0, iterations);
    result.validated_wips = result.best_wips;
    result.converged_at = 0;
    return result;
  }

  finalize(result, validation_iterations);
  return result;
}

void TuningDriver::apply_configuration(const harmony::PointI& configuration) {
  apply_method_values(system_, options_.method, configuration);
}

}  // namespace ah::core
