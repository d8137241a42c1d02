#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/csv.hpp"
#include "common/fmt.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "webstack/params.hpp"

namespace ah::bench {

namespace {

core::Experiment::Config experiment_config(const StudySpec& spec) {
  core::Experiment::Config config;
  config.browsers = spec.browsers;
  config.workload = spec.workload;
  config.seed = spec.seed;
  return config;
}

}  // namespace

int browsers_for(tpcw::WorkloadKind workload) {
  switch (workload) {
    case tpcw::WorkloadKind::kBrowsing: return 530;
    case tpcw::WorkloadKind::kShopping: return 680;
    case tpcw::WorkloadKind::kOrdering: return 530;
  }
  return kBrowsersPerLine;
}

namespace {

std::size_t parse_threads(const char* text) {
  std::size_t parsed = 0;
  std::size_t consumed = 0;
  try {
    parsed = std::stoul(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || text[consumed] != '\0') {
    std::fprintf(stderr,
                 "error: --threads requires a non-negative integer, got "
                 "'%s'\n",
                 text);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

std::size_t threads_flag(int& argc, char** argv) {
  std::size_t threads = 1;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --threads requires a value\n");
        std::exit(2);
      }
      threads = parse_threads(argv[++i]);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = parse_threads(arg + 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return threads;
}

std::string string_flag(int& argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, name) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", name);
        std::exit(2);
      }
      value = argv[++i];
    } else if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
      value = arg + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return value;
}

void fan_out(std::size_t threads, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  common::ThreadPool pool(threads);
  pool.parallel_for(n, fn);
}

StudyResult run_study(const StudySpec& spec) {
  StudyResult result;
  {
    core::SystemModel system(spec.topology);
    core::Experiment experiment(system, experiment_config(spec));
    core::TuningDriver driver(system, experiment,
                              {spec.method, spec.session});
    result.tuning = driver.run(spec.iterations);
  }
  {
    // Baseline: identical system, no tuning, a few iterations to settle.
    core::SystemModel system(spec.topology);
    core::Experiment experiment(system, experiment_config(spec));
    common::RunningStats stats;
    for (std::size_t i = 0; i < 5; ++i) {
      const auto iteration = experiment.run_iteration();
      if (i >= 2) stats.add(iteration.wips);
    }
    result.baseline_wips = stats.mean();
  }
  return result;
}

double measure_configuration(const StudySpec& spec,
                             const harmony::PointI& configuration,
                             std::size_t iterations,
                             std::size_t warmup_iters) {
  core::SystemModel system(spec.topology);
  core::Experiment experiment(system, experiment_config(spec));
  core::TuningDriver driver(system, experiment, {spec.method, spec.session});
  driver.apply_configuration(configuration);
  common::RunningStats stats;
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto iteration = experiment.run_iteration();
    if (i >= warmup_iters) stats.add(iteration.wips);
  }
  return stats.mean();
}

std::string write_series_csv(const std::string& name,
                             const std::vector<double>& series) {
  const std::string path = "harmony_bench_" + name + ".csv";
  common::CsvWriter csv(path, {"iteration", "wips"});
  for (std::size_t i = 0; i < series.size(); ++i) {
    csv.write_row({static_cast<double>(i), series[i]});
  }
  return path;
}

std::size_t iterations_to_quality(const std::vector<double>& series,
                                  double baseline, double target,
                                  double quality, std::size_t window) {
  const double threshold = baseline + quality * (target - baseline);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::size_t from = i + 1 >= window ? i + 1 - window : 0;
    common::RunningStats stats;
    for (std::size_t j = from; j <= i; ++j) stats.add(series[j]);
    if (stats.count() >= std::min(window, i + 1) &&
        stats.mean() >= threshold) {
      return i;
    }
  }
  return series.size();
}

harmony::PointI tuned_reference_configuration() {
  webstack::ProxyParams proxy;
  proxy.cache_mem = 24LL * 1024 * 1024;
  proxy.maximum_object_size_in_memory = 64LL * 1024;
  webstack::AppParams app;
  app.min_processors = 32;
  app.max_processors = 128;
  app.accept_count = 150;
  app.buffer_size = 8192;
  app.ajp_min_processors = 32;
  app.ajp_max_processors = 160;
  app.ajp_accept_count = 300;
  webstack::DbParams db;
  db.binlog_cache_size = 284672;
  db.max_connections = 700;
  db.table_cache = 900;
  db.thread_concurrency = 80;
  db.net_buffer_length = 34816;
  return webstack::to_values(proxy, app, db);
}

void banner(const std::string& title, const std::string& paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_reference.c_str());
  std::printf("  (Chung & Hollingsworth, \"Automated Cluster-Based Web\n");
  std::printf("   Service Performance Tuning\", HPDC 2004)\n");
  std::printf("==============================================================\n\n");
}

}  // namespace ah::bench
