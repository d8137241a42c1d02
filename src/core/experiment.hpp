// Experiment: the paper's measurement protocol on top of a SystemModel.
//
// One *iteration* (paper §III.A) is warm-up → measure WIPS → cool-down on a
// continuously running system; the Harmony server adjusts parameters
// between iterations.  The Experiment owns one closed-loop TPC-W workload
// and one WIPS meter per work line, re-arms the meters each iteration, and
// advances the shared simulated timeline.
//
// Durations are scaled down from the paper's 100/1000/100 s to keep
// 200-iteration studies fast; the protocol (and the need for warm-up — the
// proxy memory cache restarts cold after every reconfigure) is preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system_model.hpp"
#include "tpcw/constraints.hpp"
#include "tpcw/metrics.hpp"
#include "tpcw/mix.hpp"
#include "tpcw/workload.hpp"

namespace ah::core {

struct IterationSpec {
  common::SimTime warmup = common::SimTime::seconds(20.0);
  common::SimTime measure = common::SimTime::seconds(60.0);
  common::SimTime cooldown = common::SimTime::seconds(5.0);

  [[nodiscard]] common::SimTime total() const {
    return warmup + measure + cooldown;
  }
};

struct IterationResult {
  double wips = 0.0;         // summed over lines
  double wips_browse = 0.0;
  double wips_order = 0.0;
  double error_ratio = 0.0;  // weighted over lines
  double mean_latency_ms = 0.0;
  /// Exact-rank latency percentiles over all lines' in-window successful
  /// completions (merged per-line histograms; see obs::Histogram).  Zero
  /// when nothing completed in the window.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::vector<double> line_wips;  // per work line
  /// True when a fault event or health transition fired inside the
  /// warm-up/measure/cool-down window — the WIPS figure then reflects the
  /// disturbance, not the candidate configuration, and tuners should
  /// discard or penalise it (paper §III.A assumes a steady plant).
  bool disturbed = false;
};

class Experiment {
 public:
  struct Config {
    IterationSpec iteration{};
    /// Total emulated browsers, split evenly across work lines.
    int browsers = 530;
    tpcw::WorkloadKind workload = tpcw::WorkloadKind::kShopping;
    std::uint64_t item_count = 10000;
    std::uint64_t seed = 2004;
  };

  Experiment(SystemModel& system, const Config& config);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Switches the TPC-W mix; takes effect with each browser's next
  /// interaction (paper Fig 5's workload changes).
  void set_workload(tpcw::WorkloadKind kind);
  [[nodiscard]] tpcw::WorkloadKind workload() const { return workload_; }

  /// Runs one warm-up/measure/cool-down cycle and returns the measured
  /// performance.  Browsers start on the first call and keep running.
  IterationResult run_iteration();

  /// TPC-W clause 5.5 response-time compliance over every work line's
  /// successful interactions inside the measurement windows run so far
  /// (lines merged in index order).
  [[nodiscard]] tpcw::WirtTracker wirt() const;

  /// Installs a full scenario: faults via SystemModel::install_scenario,
  /// arrival modulation and mix drift on every work line's browsers.  The
  /// plan is owned by the model, so the modulation pointers stay valid for
  /// the experiment's lifetime.
  void apply_scenario(const sim::ScenarioPlan& plan);

  [[nodiscard]] std::size_t iterations_run() const { return iterations_; }
  [[nodiscard]] SystemModel& system() { return system_; }
  [[nodiscard]] const tpcw::WipsMeter& meter(std::size_t line) const;

 private:
  SystemModel& system_;
  Config config_;
  tpcw::WorkloadKind workload_;

  std::vector<std::unique_ptr<tpcw::WipsMeter>> meters_;
  std::vector<std::unique_ptr<tpcw::Workload>> workloads_;
  bool started_ = false;
  std::size_t iterations_ = 0;
};

}  // namespace ah::core
