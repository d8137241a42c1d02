// adaptive_cluster: the paper's headline demo as a runnable scenario.
//
// A six-node proxy/app cluster (plus databases) serves a browsing workload;
// mid-run the traffic turns into an ordering storm.  Active Harmony keeps
// tuning parameters every iteration and runs the reconfiguration check
// every `check_every` iterations (paper: every 50).  Watch the tier sizes
// change and throughput recover.
//
// With --faults a scripted scenario runs on the same timeline (see
// sim/scenario.hpp for the grammar: faults, flash crowds, ramps, mix drift,
// racks, switches): health checking, per-hop timeouts and proxy
// retry/serve-stale degradation switch on, and the tuner discards
// measurement windows that overlapped a disturbance.
//
// With --metrics <path> the full registry snapshot (every counter, gauge
// and latency histogram the SystemModel registers) is written as JSON when
// the run ends; --trace <path> records per-request proxy/app/db spans and
// writes them as CSV.  Both are opt-in and passive: runs with and without
// them are byte-identical on stdout.
//
// Usage: adaptive_cluster [iterations] [check_every] [--faults <scenario>]
//                         [--metrics <path>] [--trace <path>]
// Example: adaptive_cluster 60 10 --faults "crash:5@400; restart:5@900"
// check_every must be at least 1.  The storm starts at iteration
// max(1, iterations / 3), so even a short run begins with browsing.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <system_error>

#include "core/experiment.hpp"
#include "core/reconfig_controller.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "tpcw/mix.hpp"

namespace {

constexpr const char* kUsage =
    "usage: adaptive_cluster [iterations] [check_every >= 1] "
    "[--faults <scenario>] [--metrics <path>] [--trace <path>]\n";

/// Parses a positional count; false unless `text` is a plain decimal.
bool parse_count(const std::string& text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

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
    } else if (positional < 2) {
      std::size_t& count = positional == 0 ? iterations : check_every;
      if (!parse_count(arg, count)) {
        std::fprintf(stderr, "'%s' is not a count\n%s", arg.c_str(), kUsage);
        return 1;
      }
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n%s", arg.c_str(),
                   kUsage);
      return 1;
    }
  }
  if (check_every == 0) {
    std::fprintf(stderr, "check_every must be at least 1\n%s", kUsage);
    return 1;
  }

  sim::Simulator sim;
  core::SystemModel::Config system_config;
  system_config.lines = {core::SystemModel::LineSpec{4, 2, 3}};
  core::SystemModel system(sim, system_config);

  // Sample every 8th request: plenty of spans over a long demo without the
  // ring discarding all but the final iterations.
  obs::TraceRecorder trace(/*every_nth=*/8);
  if (!trace_path.empty()) system.set_trace_recorder(&trace);

  core::Experiment::Config experiment_config;
  experiment_config.browsers = 2600;
  experiment_config.workload = tpcw::WorkloadKind::kBrowsing;
  core::Experiment experiment(system, experiment_config);

  if (!fault_text.empty()) {
    std::string error;
    const auto plan = sim::ScenarioPlan::parse(fault_text, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    system.enable_fault_tolerance({});
    try {
      experiment.apply_scenario(*plan);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("# scenario armed: %zu fault events, %zu arrival phases, "
                "%zu mix changes\n",
                plan->faults.events.size(), plan->arrival.phases.size(),
                plan->mix_changes.size());
  }

  core::TuningDriver driver(
      system, experiment,
      {core::TuningMethod::kDuplication, harmony::SessionOptions{}});

  harmony::ReconfigOptions reconfig_options =
      core::SystemModel::default_reconfig_options();
  reconfig_options.resources[core::SystemModel::kCpu].low_threshold = 0.60;
  reconfig_options.resources[core::SystemModel::kDisk].low_threshold = 0.60;
  reconfig_options.resources[core::SystemModel::kNic].low_threshold = 0.50;
  core::ReconfigController controller(system, reconfig_options);

  // Iteration 0 always measures browsing, so the storm is visible.
  const std::size_t storm_at = std::max<std::size_t>(1, iterations / 3);
  std::uint64_t discarded = 0;
  std::printf("# iter workload  WIPS   proxies apps dbs  note\n");
  for (std::size_t i = 0; i < iterations; ++i) {
    if (i == storm_at) {
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
