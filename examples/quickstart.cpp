// Quickstart: tune a single-node-per-tier web cluster with Active Harmony.
//
// Builds the paper's basic setup (one proxy, one application server, one
// database), runs the TPC-W shopping mix, lets the Harmony server tune the
// 23 parameters for a number of iterations, and prints the WIPS trajectory
// plus the best configuration found.
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "sim/simulator.hpp"
#include "webstack/params.hpp"

int main(int argc, char** argv) {
  const std::size_t iterations = argc > 1 ? std::stoul(argv[1]) : 60;

  ah::sim::Simulator sim;
  ah::core::SystemModel::Config system_config;
  system_config.lines = {ah::core::SystemModel::LineSpec{1, 1, 1}};
  ah::core::SystemModel system(sim, system_config);

  ah::core::Experiment::Config experiment_config;
  experiment_config.browsers = 530;
  experiment_config.workload = ah::tpcw::WorkloadKind::kBrowsing;
  ah::core::Experiment experiment(system, experiment_config);

  ah::core::TuningDriver::Options options;
  options.method = ah::core::TuningMethod::kDuplication;
  ah::core::TuningDriver driver(system, experiment, options);

  std::printf("# iter  WIPS\n");
  ah::core::TuningResult result;
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto partial = driver.run(1, /*validation_iterations=*/0);
    result.wips_series.push_back(partial.wips_series.front());
    result.best_configuration = partial.best_configuration;
    result.best_wips = partial.best_wips;
    if (i % 5 == 0 || i + 1 == iterations) {
      std::printf("%6zu  %7.1f\n", i, result.wips_series.back());
    }
  }

  std::printf("\nbest WIPS observed: %.1f\n", result.best_wips);
  std::printf("best configuration:\n");
  const auto& catalogue = ah::webstack::parameter_catalogue();
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    std::printf("  %-32s %10lld (default %lld)\n", catalogue[i].name.c_str(),
                static_cast<long long>(result.best_configuration[i]),
                static_cast<long long>(catalogue[i].default_value));
  }
  return 0;
}
