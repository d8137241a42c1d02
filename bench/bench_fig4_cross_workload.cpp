// Figure 4: applying best configurations after 200 iterations to
// different workloads, and Table 3: the tuned parameter values.
//
// For each TPC-W mix (Browsing / Shopping / Ordering) Active Harmony tunes
// the 23 parameters for 200 iterations.  Each best configuration is then
// re-measured under all three workloads, reproducing the paper's 3x3 bar
// matrix, and the improvement-vs-default row of the embedded table
// (paper: 15% / 16% / 5%).  Last, the default value and the three best
// configurations' value of every parameter are printed in the shape of the
// paper's Table 3.  Absolute values differ from the paper's testbed; the
// qualitative patterns to look for are called out underneath the table
// (e.g. ordering grows thread pools, cache knobs grow for cache-friendly
// mixes, cache_swap_low/high wander because they are performance-inert).
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "webstack/params.hpp"

namespace {

using namespace ah;

void print_table3(const harmony::PointI (&best)[3]) {
  common::TextTable table({"Tunable parameter", "Default", "Browsing",
                           "Shopping", "Ordering"});
  const auto& catalogue = webstack::parameter_catalogue();
  cluster::TierKind last_tier = cluster::TierKind::kDb;
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    if (i == 0 || catalogue[i].tier != last_tier) {
      last_tier = catalogue[i].tier;
      const char* header = last_tier == cluster::TierKind::kProxy
                               ? "-- Proxy Server --"
                               : last_tier == cluster::TierKind::kApp
                                     ? "-- Web Server --"
                                     : "-- Database Server --";
      table.add_row({header, "", "", "", ""});
    }
    table.add_row({catalogue[i].name,
                   std::to_string(catalogue[i].default_value),
                   std::to_string(best[0][i]), std::to_string(best[1][i]),
                   std::to_string(best[2][i])});
  }
  table.render(std::cout);

  std::printf(
      "\nPatterns to compare with the paper's Table 3:\n"
      " * proxy cache parameters move for the cache-heavy mixes\n"
      "   (browsing/shopping) but matter little for ordering;\n"
      " * thread-pool and accept-queue parameters grow most under the\n"
      "   ordering mix (DB-latency-bound requests hold threads longer);\n"
      " * binlog_cache_size grows for write-heavy mixes;\n"
      " * cache_swap_low/high and join_buffer_size are performance-inert\n"
      "   (paper Section III.A), so their tuned values wander.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ah;
  const std::size_t threads = bench::threads_flag(argc, argv);
  const std::size_t iterations = argc > 1 ? std::stoul(argv[1]) : 200;
  bench::banner("Figure 4: best configurations across workloads",
                "Figure 4 + embedded improvement table, Table 3 "
                "(Section III.A)");

  const tpcw::WorkloadKind kinds[] = {tpcw::WorkloadKind::kBrowsing,
                                      tpcw::WorkloadKind::kShopping,
                                      tpcw::WorkloadKind::kOrdering};

  // The three tuning studies and, afterwards, the nine cross-measurements
  // are independent: with --threads > 1 each fans out over a pool.  Every
  // study/measurement keeps its own sequential driver, so the printed
  // numbers are identical at any thread count.

  // Tune per workload.
  harmony::PointI best_configs[3];
  double baselines[3] = {};
  for (int w = 0; w < 3; ++w) {
    std::printf("tuning %s for %zu iterations...\n",
                std::string(tpcw::workload_name(kinds[w])).c_str(),
                iterations);
  }
  bench::fan_out(threads, 3, [&](std::size_t w) {
    bench::StudySpec spec;
    spec.workload = kinds[w];
    spec.browsers = bench::browsers_for(kinds[w]);
    spec.iterations = iterations;
    const auto study = bench::run_study(spec);
    best_configs[w] = study.tuning.best_configuration;
    baselines[w] = study.baseline_wips;
    bench::write_series_csv(
        std::string("fig4_tuning_") +
            std::string(tpcw::workload_name(kinds[w])),
        study.tuning.wips_series);
  });

  // Cross-apply: measured[config][workload].
  double measured[3][3];
  bench::fan_out(threads, 9, [&](std::size_t cell) {
    const std::size_t c = cell / 3;
    const std::size_t w = cell % 3;
    bench::StudySpec spec;
    spec.workload = kinds[w];
    spec.browsers = bench::browsers_for(kinds[w]);
    measured[c][w] = bench::measure_configuration(spec, best_configs[c]);
  });

  std::printf("\nWIPS by (configuration tuned for) x (workload run):\n");
  common::TextTable matrix({"configuration \\ workload", "Browsing",
                            "Shopping", "Ordering"});
  matrix.add_row({"default", common::TextTable::num(baselines[0], 1),
                  common::TextTable::num(baselines[1], 1),
                  common::TextTable::num(baselines[2], 1)});
  for (int c = 0; c < 3; ++c) {
    matrix.add_row({"tuned for " + std::string(tpcw::workload_name(kinds[c])),
                    common::TextTable::num(measured[c][0], 1),
                    common::TextTable::num(measured[c][1], 1),
                    common::TextTable::num(measured[c][2], 1)});
  }
  matrix.render(std::cout);

  std::printf("\nImprovement of the natively-tuned configuration over the\n"
              "default configuration (paper: 15%% / 16%% / 5%%):\n");
  common::TextTable improvements({"", "Browsing", "Shopping", "Ordering"});
  std::vector<std::string> cells{"improvement"};
  for (int w = 0; w < 3; ++w) {
    cells.push_back(common::TextTable::percent(
        (measured[w][w] - baselines[w]) / baselines[w], 1));
  }
  improvements.add_row(cells);
  improvements.render(std::cout);

  std::printf("\nCross-workload penalty (native config vs foreign config,\n"
              "positive = the workload's own configuration wins):\n");
  common::TextTable penalty({"workload", "vs other config 1",
                             "vs other config 2"});
  for (int w = 0; w < 3; ++w) {
    std::vector<std::string> row{
        std::string(tpcw::workload_name(kinds[w]))};
    for (int c = 0; c < 3; ++c) {
      if (c == w) continue;
      row.push_back(common::TextTable::percent(
          (measured[w][w] - measured[c][w]) /
              std::max(1e-9, measured[c][w]),
          1));
    }
    penalty.add_row(row);
  }
  penalty.render(std::cout);

  std::printf("\nTable 3: tuned parameter values per workload (the best\n"
              "configuration of each %zu-iteration study above):\n",
              iterations);
  print_table3(best_configs);
  return 0;
}
