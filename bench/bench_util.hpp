// Shared machinery for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper.  They
// all follow the same recipe: build a SystemModel + Experiment, optionally
// run a TuningDriver for N iterations, then print a table in the shape of
// the original and dump the raw per-iteration series as CSV next to the
// binary (harmony_bench_*.csv) for offline re-plotting.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "tpcw/mix.hpp"

namespace ah::bench {

/// Default emulated-browser population for single-work-line studies
/// (chosen so the default configuration sits at the knee of the bottleneck
/// tier; see DESIGN.md calibration notes).
inline constexpr int kBrowsersPerLine = 530;

/// Per-mix emulated-browser population.  TPC-W scales the EB population to
/// the mix under test; these values put each mix's *default* configuration
/// at the saturation depth the paper reports (browsing and ordering bind
/// hard, shopping sits at the knee of the proxy disk path).
[[nodiscard]] int browsers_for(tpcw::WorkloadKind workload);

/// Extracts a `--threads N` / `--threads=N` flag from argv (removing it so
/// positional arguments keep their usual indices) and returns N.  Default 1
/// (sequential, paper-exact ordering); 0 = hardware concurrency.  Bench
/// drivers use it to fan independent table cells out over a thread pool —
/// each cell's own driver stays sequential, so printed numbers and CSVs are
/// identical at any thread count.
std::size_t threads_flag(int& argc, char** argv);

/// Extracts a string-valued `--name VALUE` / `--name=VALUE` flag from argv
/// (removing it, like threads_flag).  Returns the empty string when the
/// flag is absent.  Used for the telemetry opt-ins: `--metrics <path>`
/// (registry snapshot) and `--trace <path>` (span CSV).
std::string string_flag(int& argc, char** argv, const char* name);

/// Runs fn(0) .. fn(n-1): in order on the calling thread when threads == 1,
/// otherwise fanned out over a pool of `threads` workers (0 = hardware
/// concurrency).  Callers pass independent cells only, so results are the
/// same either way; exceptions propagate (first index wins).
void fan_out(std::size_t threads, std::size_t n,
             const std::function<void(std::size_t)>& fn);

/// One self-contained tuning study.
struct StudySpec {
  core::SystemModel::Config topology{};
  tpcw::WorkloadKind workload = tpcw::WorkloadKind::kShopping;
  core::TuningMethod method = core::TuningMethod::kDuplication;
  std::size_t iterations = 200;
  int browsers = kBrowsersPerLine;
  std::uint64_t seed = 2004;
  harmony::SessionOptions session{};
};

struct StudyResult {
  core::TuningResult tuning;
  /// Mean WIPS of a fresh run under the default configuration (baseline).
  double baseline_wips = 0.0;
};

/// Runs a tuning study from scratch (fresh simulator) and separately
/// measures the default-configuration baseline on an identical system.
StudyResult run_study(const StudySpec& spec);

/// Measures mean WIPS of a fixed configuration vector (layout must match
/// `method` on this topology) over `iterations`, discarding `warmup_iters`.
double measure_configuration(const StudySpec& spec,
                             const harmony::PointI& configuration,
                             std::size_t iterations = 6,
                             std::size_t warmup_iters = 2);

/// Writes a WIPS series as CSV ("iteration,wips") into the working
/// directory; returns the path.
std::string write_series_csv(const std::string& name,
                             const std::vector<double>& series);

/// Prints the standard bench banner.
void banner(const std::string& title, const std::string& paper_reference);

/// First iteration whose trailing `window`-iteration mean reaches
/// baseline + quality x (target - baseline); the "iterations" figure of
/// Table 4 (how quickly a method delivers most of its eventual gain).
/// Returns the series length when never reached, and always when `target`
/// is not above `baseline`: there is no gain to deliver.
std::size_t iterations_to_quality(const std::vector<double>& series,
                                  double baseline, double target,
                                  double quality = 0.9,
                                  std::size_t window = 5);

/// A reference well-tuned 23-value configuration (Table-3 "Ordering"
/// column spirit): bigger caches, large thread pools, large DB buffers.
/// Used by experiments that study something other than parameter tuning
/// (e.g. Fig 7 reconfiguration, which the paper runs with tuning active).
harmony::PointI tuned_reference_configuration();

}  // namespace ah::bench
