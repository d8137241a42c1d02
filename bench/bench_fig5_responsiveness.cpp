// Figure 5: tuning responsiveness to the changing workloads.
//
// The system starts on the default configuration; the TPC-W mix switches
// every `phase` iterations (browsing -> ordering -> shopping -> browsing)
// while one Harmony session keeps tuning straight through the switches.
// The paper's claim: only a few iterations are needed to adapt after each
// switch.  The closing verdict tests it on the table: a phase after a
// switch has adapted when its first-5 mean lies within kAdaptTolerance of
// its rest-of-phase mean; otherwise the verdict names the phase.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace ah;

/// Iterations after a switch that the head column averages.
constexpr std::size_t kHeadIterations = 5;
/// Largest relative gap between the head and rest-of-phase means that
/// still counts as adapted.
constexpr double kAdaptTolerance = 0.10;

struct PhaseRow {
  std::string workload;
  double head = 0.0;  // first kHeadIterations iterations after the switch
  double tail = 0.0;  // rest of the phase
  double best = 0.0;
};

/// The responsiveness sentence the rows support.
std::string verdict(const std::vector<PhaseRow>& rows, std::size_t phase_len) {
  if (rows.size() < 2) return "no workload switch to judge.";
  if (phase_len <= kHeadIterations) {
    return "phases of " + std::to_string(phase_len) +
           " iterations leave no rest of phase to judge against.";
  }
  std::string slow;
  for (std::size_t p = 1; p < rows.size(); ++p) {
    const double gap = (rows[p].head - rows[p].tail) / rows[p].tail;
    if (std::abs(gap) <= kAdaptTolerance) continue;
    char line[128];
    std::snprintf(line, sizeof(line),
                  "\n  phase %zu (%s): %.1f vs %.1f WIPS (%+.1f %%)", p,
                  rows[p].workload.c_str(), rows[p].head, rows[p].tail,
                  100.0 * gap);
    slow += line;
  }
  if (slow.empty()) {
    return "after every switch the first-5 mean is within the tolerance of\n"
           "the rest of the phase: the tuner adapts within a few\n"
           "iterations, as in the paper's Figure 5.";
  }
  return "not adapted within " + std::to_string(kHeadIterations) +
         " iterations (first-5 mean against rest of phase):" + slow;
}

std::vector<PhaseRow> run_rotation(std::size_t phase_len, std::size_t phases,
                                   std::vector<double>& series) {
  const tpcw::WorkloadKind rotation[] = {
      tpcw::WorkloadKind::kBrowsing, tpcw::WorkloadKind::kOrdering,
      tpcw::WorkloadKind::kShopping, tpcw::WorkloadKind::kBrowsing};

  sim::Simulator sim;
  core::SystemModel system(sim, {});
  core::Experiment::Config experiment_config;
  experiment_config.browsers = bench::kBrowsersPerLine;
  experiment_config.workload = rotation[0];
  core::Experiment experiment(system, experiment_config);
  core::TuningDriver driver(system, experiment,
                            {core::TuningMethod::kDuplication, {}});

  std::vector<PhaseRow> rows;
  for (std::size_t p = 0; p < phases; ++p) {
    const auto workload = rotation[p % 4];
    if (p > 0) experiment.set_workload(workload);

    PhaseRow row;
    row.workload = std::string(tpcw::workload_name(workload));
    common::RunningStats head;
    common::RunningStats tail;
    for (std::size_t i = 0; i < phase_len; ++i) {
      const auto result = driver.run(1, /*validation_iterations=*/0);
      const double wips = result.wips_series.front();
      series.push_back(wips);
      (i < kHeadIterations ? head : tail).add(wips);
      row.best = std::max(row.best, wips);
    }
    row.head = head.mean();
    row.tail = tail.mean();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  // One sequential study: --threads is accepted like every bench's, and
  // changes nothing.
  (void)ah::bench::threads_flag(argc, argv);
  const std::size_t phase_len = argc > 1 ? std::stoul(argv[1]) : 100;
  const std::size_t phases = argc > 2 ? std::stoul(argv[2]) : 4;
  bench::banner("Figure 5: responsiveness to changing workloads",
                "Figure 5 (Section III.A)");

  std::vector<double> series;
  const auto rows = run_rotation(phase_len, phases, series);
  std::printf("continuous tuning (paper Figure 5):\n");
  common::TextTable table({"phase", "workload", "first 5 iters (WIPS)",
                           "rest of phase (WIPS)", "phase best"});
  for (std::size_t p = 0; p < rows.size(); ++p) {
    table.add_row({std::to_string(p), rows[p].workload,
                   common::TextTable::num(rows[p].head, 1),
                   common::TextTable::num(rows[p].tail, 1),
                   common::TextTable::num(rows[p].best, 1)});
  }
  table.render(std::cout);
  bench::write_series_csv("fig5_series", series);
  std::printf("\nResponsiveness (tolerance %.0f %% of the rest-of-phase mean): "
              "%s\n",
              100.0 * kAdaptTolerance, verdict(rows, phase_len).c_str());
  return 0;
}
