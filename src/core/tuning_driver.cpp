#include "core/tuning_driver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/fmt.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/model_immutable.hpp"
#include "core/parallel_evaluator.hpp"

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

void apply_method_values(SystemModel& system, TuningMethod method,
                         std::span<const std::int64_t> values) {
  const std::size_t catalogue_size = webstack::parameter_catalogue().size();
  switch (method) {
    case TuningMethod::kNone:
    case TuningMethod::kDuplication: {
      if (values.size() != catalogue_size) {
        throw std::invalid_argument("apply_method_values: expected 23 values");
      }
      system.apply_values_all(values);
      return;
    }
    case TuningMethod::kDefault: {
      // Per-node tier slices, nodes in creation order — the same order
      // build_sessions registered them, and identical on every replica
      // built from the same topology.
      std::size_t offset = 0;
      for (const cluster::NodeId node : system.all_nodes()) {
        const auto tier = system.cluster().tier_of(node);
        const auto indices = webstack::catalogue_indices_for(tier);
        harmony::PointI full = webstack::default_values();
        if (offset + indices.size() > values.size()) {
          throw std::invalid_argument("apply_method_values: layout mismatch");
        }
        for (std::size_t i = 0; i < indices.size(); ++i) {
          full[indices[i]] = values[offset + i];
        }
        system.apply_values_to_node(node, full);
        offset += indices.size();
      }
      if (offset != values.size()) {
        throw std::invalid_argument("apply_method_values: layout mismatch");
      }
      return;
    }
    case TuningMethod::kPartitioning: {
      if (values.size() != catalogue_size * system.line_count()) {
        throw std::invalid_argument("apply_method_values: layout mismatch");
      }
      for (std::size_t line = 0; line < system.line_count(); ++line) {
        system.apply_values_line(line,
                                 values.subspan(line * catalogue_size,
                                                catalogue_size));
      }
      return;
    }
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
                                     const std::string& prefix,
                                     const std::int64_t* seed_value) {
  std::int64_t start = spec.default_value;
  if (seed_value != nullptr) {
    start = std::clamp(*seed_value, spec.min_value, spec.max_value);
  }
  return harmony::TunableParameter{prefix + spec.name, spec.min_value,
                                   spec.max_value, start};
}

}  // namespace

void TuningDriver::build_sessions(const harmony::PointI* seed) {
  const auto& catalogue = webstack::parameter_catalogue();
  std::size_t seed_cursor = 0;
  auto next_seed = [&]() -> const std::int64_t* {
    if (seed == nullptr) return nullptr;
    return &seed->at(seed_cursor++);
  };
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
              id, to_tunable(catalogue[ci],
                             common::format("node{}.", node), next_seed()));
        }
      }
      server_.start(id);
      sessions_.push_back(id);
      break;
    }
    case TuningMethod::kDuplication: {
      const auto id = server_.create_session("duplication", options_.session);
      for (const auto& spec : catalogue) {
        server_.register_parameter(id, to_tunable(spec, "", next_seed()));
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
          server_.register_parameter(id, to_tunable(spec, "", next_seed()));
        }
        server_.start(id);
        sessions_.push_back(id);
      }
      break;
    }
  }
}

void TuningDriver::restart_sessions(const harmony::PointI& seed) {
  if (options_.method == TuningMethod::kNone) return;
  server_ = harmony::HarmonyServer{};
  sessions_.clear();
  build_sessions(&seed);  // clamps each value into its parameter's bounds
  // Put the system into the (clamped) remembered state immediately; the
  // rebuilt sessions propose it as their first evaluation.
  apply_pending();
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

std::size_t TuningDriver::replica_count_for(std::size_t dimensions) const {
  if (options_.replicas != 0) return options_.replicas;
  // Enough replicas for a full initial simplex (n+1 points), bounded so a
  // 46-dimension default-method session does not build 47 systems.  NEVER
  // derived from `threads`: the replica count decides which timeline
  // measures which candidate, and that must not drift with the machine.
  return std::min<std::size_t>(dimensions + 1, 16);
}

void TuningDriver::explore_sequential(TuningResult& result,
                                      std::size_t iterations) {
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

void TuningDriver::explore_parallel(TuningResult& result,
                                    std::size_t iterations) {
  common::ThreadPool pool(options_.threads);  // 0 => hardware concurrency
  const std::size_t catalogue_size = webstack::parameter_catalogue().size();

  if (options_.method == TuningMethod::kPartitioning) {
    // Work lines are independent by construction, so each line tunes on
    // its own single-line replica set fed by line-local WIPS.  Lines run
    // until each has `iterations` evaluations; the recorded whole-system
    // series is the per-evaluation-index sum across lines.
    const SystemModel::Config& topology = system_.config();
    const Experiment::Config& experiment = experiment_.config();
    const std::size_t lines = system_.line_count();
    const int browsers_per_line =
        std::max(1, experiment.browsers / static_cast<int>(lines));
    // Every line's replica set samples the same item scale, so one
    // popularity CDF serves all lines × replicas of the whole exploration.
    const tpcw::Workload::Config workload_defaults{};
    const auto popularity = std::make_shared<const tpcw::ZipfSampler>(
        experiment.item_count, workload_defaults.zipf_alpha);
    std::vector<std::vector<double>> line_series(lines);
    for (std::size_t line = 0; line < lines; ++line) {
      ParallelEvaluator::Options options;
      options.topology = topology;
      options.topology.lines = {topology.lines[line]};
      options.topology.seed = common::mix_seed(topology.seed, line);
      options.experiment = experiment;
      options.experiment.browsers = browsers_per_line;
      options.experiment.seed = common::mix_seed(experiment.seed, line);
      options.topology.shared = make_model_immutable(
          options.topology, options.experiment, popularity);
      options.replicas = replica_count_for(catalogue_size);
      ParallelEvaluator evaluator(pool, options);
      std::vector<double>& series = line_series[line];
      while (series.size() < iterations) {
        const auto pending = server_.get_pending(sessions_[line]);
        const auto evaluated = evaluator.evaluate(
            pending, [](SystemModel& system, const harmony::PointI& values) {
              system.apply_values_all(values);
            });
        std::vector<double> performances;
        performances.reserve(evaluated.size());
        for (const auto& measured : evaluated) {
          performances.push_back(measured.wips);
          series.push_back(measured.wips);
        }
        server_.report_performance_batch(sessions_[line], performances);
      }
      series.resize(iterations);
      result.discarded_windows += evaluator.discarded_windows();
    }
    result.wips_series.assign(iterations, 0.0);
    for (const auto& series : line_series) {
      for (std::size_t i = 0; i < iterations; ++i) {
        result.wips_series[i] += series[i];
      }
    }
    return;
  }

  // kDefault / kDuplication: one session; its pending batch (the whole
  // initial simplex, shrink replacements, or a single probe point) fans
  // out across the replica set.
  const std::size_t dimensions =
      server_.session(sessions_[0]).space().dimensions();
  ParallelEvaluator::Options options;
  options.topology = system_.config();
  options.experiment = experiment_.config();
  options.replicas = replica_count_for(dimensions);
  ParallelEvaluator evaluator(pool, options);
  const TuningMethod method = options_.method;
  const ParallelEvaluator::ApplyFn apply =
      [method](SystemModel& system, const harmony::PointI& values) {
        apply_method_values(system, method, values);
      };
  while (result.wips_series.size() < iterations) {
    const auto pending = server_.get_pending(sessions_[0]);
    const auto evaluated = evaluator.evaluate(pending, apply);
    std::vector<double> performances;
    performances.reserve(evaluated.size());
    for (const auto& measured : evaluated) {
      performances.push_back(measured.wips);
      result.wips_series.push_back(measured.wips);
    }
    server_.report_performance_batch(sessions_[0], performances);
  }
  // The tuner consumes whole batches, so the loop can overshoot by up to
  // batch-1 evaluations; the recorded series is trimmed to the budget
  // (every evaluation was still reported to the session).
  result.wips_series.resize(iterations);
  result.discarded_windows += evaluator.discarded_windows();
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

  if (options_.method == TuningMethod::kNone) {
    explore_sequential(result, iterations);
    result.best_configuration = webstack::default_values();
    result.best_wips = result.mean_wips(0, iterations);
    result.validated_wips = result.best_wips;
    result.converged_at = 0;
    return result;
  }

  if (options_.threads == 1) {
    explore_sequential(result, iterations);
  } else {
    explore_parallel(result, iterations);
  }
  finalize(result, validation_iterations);
  return result;
}

void TuningDriver::apply_configuration(const harmony::PointI& configuration) {
  apply_method_values(system_, options_.method, configuration);
}

}  // namespace ah::core
