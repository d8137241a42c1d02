// metrics_smoke: deterministic end-to-end exercise of the obs subsystem.
//
// Builds two independent (SystemModel, Experiment) pairs, measures a fixed
// candidate batch on them — candidate i on pair i % 2, each pair walking
// its candidates in batch order on its own timelines — and writes both
// pairs' full metrics snapshots into one JSON document.  A ThreadPool runs
// the two pairs side by side, but which pair measures which candidate
// depends only on the batch, so the output never depends on --threads.
// CI runs this binary at --threads 1, 2 and 8 and byte-compares all three
// against the committed golden (tests/golden/metrics_smoke.json): any
// nondeterminism in the simulation, the registry's pull closures, or the
// snapshot formatting shows up as a golden diff.
//
// Usage: metrics_smoke [--threads N] [--out metrics.json] [--csv metrics.csv]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "harmony/parameter.hpp"
#include "webstack/params.hpp"

namespace {

using namespace ah;

constexpr std::size_t kPairs = 2;

/// Seed of pair `pair` for a base seed: salted with "replicas", the value
/// the golden was recorded with.
std::uint64_t pair_seed(std::uint64_t base, std::size_t pair) {
  return common::mix_seed(common::mix_seed(base, 0x7265706c69636173ULL),
                          pair);
}

core::Experiment::Config smoke_experiment() {
  core::Experiment::Config config;
  config.browsers = 60;
  config.iteration.warmup = common::SimTime::seconds(4.0);
  config.iteration.measure = common::SimTime::seconds(10.0);
  config.iteration.cooldown = common::SimTime::seconds(1.0);
  config.seed = 7;
  return config;
}

// Deterministic in-bounds candidates: dimension i % 23 moved to mid-range.
std::vector<harmony::PointI> smoke_batch(std::size_t n) {
  const auto& catalogue = webstack::parameter_catalogue();
  std::vector<harmony::PointI> batch;
  for (std::size_t i = 0; i < n; ++i) {
    harmony::PointI point = webstack::default_values();
    const std::size_t d = i % point.size();
    const auto& spec = catalogue[d];
    point[d] = spec.min_value + (spec.max_value - spec.min_value) / 2;
    batch.push_back(std::move(point));
  }
  return batch;
}

bool parse_flag(int& argc, char** argv, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    int used = 0;
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      value = arg + len + 1;
      used = 1;
    } else if (std::strcmp(arg, name) == 0 && i + 1 < argc) {
      value = argv[i + 1];
      used = 2;
    } else {
      continue;
    }
    for (int j = i; j + used <= argc; ++j) argv[j] = argv[j + used];
    argc -= used;
    out = value;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string threads_str;
  std::string out_path = "metrics_smoke.json";
  std::string csv_path;
  std::size_t threads = 1;
  if (parse_flag(argc, argv, "--threads", threads_str)) {
    threads = static_cast<std::size_t>(std::strtoul(threads_str.c_str(),
                                                    nullptr, 10));
  }
  parse_flag(argc, argv, "--out", out_path);
  parse_flag(argc, argv, "--csv", csv_path);
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: metrics_smoke [--threads N] [--out metrics.json] "
                 "[--csv metrics.csv]\n");
    return 2;
  }

  struct Pair {
    std::unique_ptr<core::SystemModel> system;
    std::unique_ptr<core::Experiment> experiment;
  };
  std::vector<Pair> pairs;
  for (std::size_t r = 0; r < kPairs; ++r) {
    core::SystemModel::Config topology;
    topology.seed = pair_seed(topology.seed, r);
    core::Experiment::Config experiment = smoke_experiment();
    experiment.seed = pair_seed(experiment.seed, r);
    Pair pair;
    pair.system = std::make_unique<core::SystemModel>(topology);
    pair.experiment =
        std::make_unique<core::Experiment>(*pair.system, experiment);
    pairs.push_back(std::move(pair));
  }
  const auto batch = smoke_batch(4);
  common::ThreadPool pool(threads);
  pool.parallel_for(kPairs, [&](std::size_t r) {
    for (std::size_t i = r; i < batch.size(); i += kPairs) {
      pairs[r].system->apply_values_all(batch[i]);
      pairs[r].experiment->run_iteration();
    }
  });

  // The top-level key keeps the name the golden was recorded with.
  std::string json = "{\n\"replicas\": [\n";
  std::string csv;
  for (std::size_t r = 0; r < kPairs; ++r) {
    const obs::Registry& metrics = pairs[r].system->metrics();
    if (r > 0) json += ",\n";
    json += metrics.json_string();
    csv += metrics.csv_string();
  }
  json += "]\n}\n";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "metrics_smoke: cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), out);
  const bool closed = std::fclose(out) == 0;
  if (written != json.size() || !closed) {
    std::fprintf(stderr, "metrics_smoke: short write to %s\n",
                 out_path.c_str());
    return 1;
  }
  if (!csv_path.empty()) {
    std::FILE* cout_ = std::fopen(csv_path.c_str(), "w");
    if (cout_ == nullptr ||
        std::fwrite(csv.data(), 1, csv.size(), cout_) != csv.size() ||
        std::fclose(cout_) != 0) {
      std::fprintf(stderr, "metrics_smoke: cannot write %s\n",
                   csv_path.c_str());
      return 1;
    }
  }
  std::printf("metrics_smoke: wrote %s (%zu bytes, %zu systems)\n",
              out_path.c_str(), json.size(), kPairs);
  return 0;
}
