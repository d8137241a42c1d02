// TuningDriver: the four cluster-tuning methods of the paper on top of a
// SystemModel + Experiment.
//
//   kNone         no tuning; the default configuration throughout
//                 (Table 4 "None" row)
//   kDefault      one Harmony session over EVERY parameter of EVERY node:
//                 a node contributes its tier's catalogue slice, so the
//                 space has 7·P + 7·A + 9·D dimensions and one global WIPS
//                 figure per iteration (Table 4 "Default method")
//   kDuplication  one 23-dimension session; each tier's representative
//                 values are duplicated onto all nodes of that tier
//                 (Table 4 "Parameter duplication")
//   kPartitioning one 23-dimension session PER WORK LINE, each fed by its
//                 own line-local WIPS — several performance readings per
//                 iteration, and a change in one line cannot perturb the
//                 others' measurements (Table 4 "Parameter partitioning")
//
// The driver records the WIPS series, the best configuration, and the
// convergence iteration for Table 4.
//
// Candidates are measured the paper's way (§III.A): one at a time,
// back-to-back on the ONE live system, state carry-over included.  To
// advance a multi-line model's work lines concurrently, attach a pool with
// SystemModel::set_thread_pool(); results stay bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "harmony/server.hpp"
#include "webstack/params.hpp"

namespace ah::core {

enum class TuningMethod { kNone, kDefault, kDuplication, kPartitioning };

[[nodiscard]] std::string_view tuning_method_name(TuningMethod method);

/// Applies a candidate vector in `method` layout to a system:
/// kNone/kDuplication take one 23-value catalogue vector for every node,
/// kDefault takes concatenated per-node tier slices (nodes in
/// `system.all_nodes()` creation order), kPartitioning takes per-line
/// 23-value vectors concatenated in line order.  Throws
/// std::invalid_argument on a layout mismatch, before any node changes.
void apply_method_values(SystemModel& system, TuningMethod method,
                         std::span<const std::int64_t> values);

struct TuningResult {
  /// Measured WIPS per iteration (whole system).
  std::vector<double> wips_series;
  /// WIPS of the best configuration as re-measured during the validation
  /// pass (see TuningDriver::run), not the raw in-run observation.
  double validated_wips = 0.0;
  /// Per-iteration applied configurations are implicit in the sessions'
  /// histories; the best is resolved here:
  /// for kDuplication/kNone: one 23-value vector;
  /// for kDefault: concatenated per-node slices;
  /// for kPartitioning: per-line 23-value vectors concatenated.
  harmony::PointI best_configuration;
  double best_wips = 0.0;
  /// First iteration after which no significant improvement occurred
  /// (Table 4 "Iterations"); nullopt when never converged.
  std::optional<std::size_t> converged_at;
  /// Measurement windows thrown away (and re-measured once) because a
  /// fault event or health transition overlapped them — the tuner must not
  /// mistake a crash-induced WIPS dip for a bad candidate configuration.
  std::uint64_t discarded_windows = 0;

  /// Mean/stddev of WIPS over iterations [from, to).
  [[nodiscard]] double mean_wips(std::size_t from, std::size_t to) const;
  [[nodiscard]] double stddev_wips(std::size_t from, std::size_t to) const;
};

class TuningDriver {
 public:
  struct Options {
    TuningMethod method = TuningMethod::kDuplication;
    harmony::SessionOptions session{};
  };

  TuningDriver(SystemModel& system, Experiment& experiment, Options options);

  /// Runs `iterations` tuning iterations, then validates the top
  /// candidate configurations with `validation_iterations` extra
  /// measured iterations each (a single noisy observation can be inflated
  /// by backlog-drain bursts after a bad configuration; validation
  /// re-measures candidates back-to-back under identical conditions).
  /// Pass 0 to skip validation.  Returns the recorded result with
  /// best_configuration/best_wips resolved from the validation pass.
  TuningResult run(std::size_t iterations,
                   std::size_t validation_iterations = 2);

  /// Applies a best-configuration vector (in the layout `run` produced for
  /// this method) to the system — used to re-measure tuned configurations,
  /// e.g. for the Fig 4 cross-workload study.  Throws
  /// std::invalid_argument on a layout mismatch, leaving every node as it
  /// was.
  void apply_configuration(const harmony::PointI& configuration);

  [[nodiscard]] harmony::HarmonyServer& server() { return server_; }

 private:
  /// Builds the Harmony sessions for the chosen method.
  void build_sessions();
  /// Applies every session's currently-asked configuration to the system.
  void apply_pending();
  /// Reports measured performance to every session.
  void report(const IterationResult& result);
  /// Concatenation of each session's best configuration.
  [[nodiscard]] harmony::PointI concatenated_best() const;

  /// Measures one candidate per iteration on the live system.
  void explore(TuningResult& result, std::size_t iterations);
  /// Convergence bookkeeping + validation pass.
  void finalize(TuningResult& result, std::size_t validation_iterations);

  SystemModel& system_;
  Experiment& experiment_;
  Options options_;
  harmony::HarmonyServer server_;
  std::vector<harmony::SessionId> sessions_;
};

}  // namespace ah::core
