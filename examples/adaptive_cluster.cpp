// adaptive_cluster: the paper's headline demo as a runnable scenario.
//
// A six-node proxy/app cluster (plus databases) serves a browsing workload;
// mid-run the traffic turns into an ordering storm.  Active Harmony keeps
// tuning parameters every iteration and runs the reconfiguration check
// every `check_every` iterations (paper: every 50).  Watch the tier sizes
// change and throughput recover.
//
// With --faults a scripted fault plan runs on the same timeline (see
// sim/fault_injector.hpp for the plan grammar): health checking, per-hop
// timeouts and proxy retry/serve-stale degradation switch on, and the tuner
// discards measurement windows that overlapped a disturbance.
//
// With --metrics <path> the full registry snapshot (every counter, gauge
// and latency histogram the SystemModel registers) is written as JSON when
// the run ends; --trace <path> records per-request proxy/app/db spans and
// writes them as CSV.  Both are opt-in and passive: runs with and without
// them are byte-identical on stdout.
//
// Usage: adaptive_cluster [iterations] [check_every] [--faults <plan>]
//                         [--metrics <path>] [--trace <path>]
// Example: adaptive_cluster 60 10 --faults "crash:5@400; restart:5@900"
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/reconfig_controller.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "tpcw/mix.hpp"

int main(int argc, char** argv) {
  using namespace ah;
  std::size_t iterations = 60;
  std::size_t check_every = 10;
  std::string fault_text;
  std::string metrics_path;
  std::string trace_path;
  std::size_t positional = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--faults") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--faults needs a plan argument\n");
        return 1;
      }
      fault_text = argv[++a];
    } else if (arg == "--metrics") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--metrics needs a path argument\n");
        return 1;
      }
      metrics_path = argv[++a];
    } else if (arg == "--trace") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--trace needs a path argument\n");
        return 1;
      }
      trace_path = argv[++a];
    } else if (positional == 0) {
      iterations = std::stoul(arg);
      ++positional;
    } else if (positional == 1) {
      check_every = std::stoul(arg);
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return 1;
    }
  }

  sim::Simulator sim;
  core::SystemModel::Config system_config;
  system_config.lines = {core::SystemModel::LineSpec{4, 2, 3}};
  core::SystemModel system(sim, system_config);

  // Sample every 8th request: plenty of spans over a long demo without the
  // ring discarding all but the final iterations.
  obs::TraceRecorder trace(/*every_nth=*/8);
  if (!trace_path.empty()) system.set_trace_recorder(&trace);

  if (!fault_text.empty()) {
    std::string error;
    const auto plan = sim::FaultPlan::parse(fault_text, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    system.enable_fault_tolerance({});
    try {
      system.install_fault_plan(*plan);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("# fault plan armed: %zu events\n", plan->events.size());
  }

  core::Experiment::Config experiment_config;
  experiment_config.browsers = 2600;
  experiment_config.workload = tpcw::WorkloadKind::kBrowsing;
  core::Experiment experiment(system, experiment_config);

  core::TuningDriver driver(
      system, experiment,
      {core::TuningMethod::kDuplication, harmony::SessionOptions{}});

  harmony::ReconfigOptions reconfig_options =
      core::SystemModel::default_reconfig_options();
  reconfig_options.resources[core::SystemModel::kCpu].low_threshold = 0.60;
  reconfig_options.resources[core::SystemModel::kDisk].low_threshold = 0.60;
  reconfig_options.resources[core::SystemModel::kNic].low_threshold = 0.50;
  core::ReconfigController controller(system, reconfig_options);

  std::uint64_t discarded = 0;
  std::printf("# iter workload  WIPS   proxies apps dbs  note\n");
  for (std::size_t i = 0; i < iterations; ++i) {
    if (i == iterations / 3) {
      experiment.set_workload(tpcw::WorkloadKind::kOrdering);
    }
    const auto result = driver.run(1, /*validation_iterations=*/0);
    discarded += result.discarded_windows;
    std::string note;
    if (result.discarded_windows > 0) note = "disturbed; window re-measured";
    if (i > 0 && i % check_every == 0) {
      if (const auto decision = controller.check(); decision.has_value()) {
        note = "reconfig: node" + std::to_string(decision->donor_node) +
               " -> " +
               std::string(cluster::tier_name(
                   static_cast<cluster::TierKind>(decision->to_tier)));
      }
    }
    std::printf("%6zu %-9s %6.1f  %7zu %4zu %3zu  %s\n", i,
                std::string(tpcw::workload_name(experiment.workload())).c_str(),
                result.wips_series.front(),
                system.cluster().tier(cluster::TierKind::kProxy).size(),
                system.cluster().tier(cluster::TierKind::kApp).size(),
                system.cluster().tier(cluster::TierKind::kDb).size(),
                note.c_str());
  }
  std::printf("\n%zu reconfiguration moves in total.\n",
              controller.moves().size());
  if (!fault_text.empty()) {
    std::printf("%llu measurement windows discarded after disturbances.\n",
                static_cast<unsigned long long>(discarded));
  }
  if (!metrics_path.empty()) {
    if (!system.metrics().write_json(metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics snapshot: %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!trace.write_csv(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "span trace: %s\n", trace_path.c_str());
  }
  return 0;
}
