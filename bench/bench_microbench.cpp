// Micro-benchmarks of the simulation and tuning primitives
// (google-benchmark).  These are engineering benchmarks, not paper
// reproductions: they track the cost of the hot paths that determine how
// many tuning iterations per wall-clock second the harness sustains.  The
// event queue, LRU cache and Zipf sampler are timed in bench_throughput
// instead, whose BENCH_throughput.json keeps their before/after record.
#include <benchmark/benchmark.h>

#include <malloc.h>  // malloc_usable_size (glibc)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/system_model.hpp"
#include "harmony/simplex.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "tpcw/mix.hpp"
#include "core/model_immutable.hpp"
#include "webstack/params.hpp"

// ---------------------------------------------------------------------------
// Live-heap accounting for the bytes-per-replica column (same hook as
// bench_scale: add/subtract malloc_usable_size of every live allocation).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void track_bytes(void* p) {
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}
}  // namespace

// gcc pairs the inlined malloc/aligned_alloc in these replacements with
// the free() in the replaced delete and flags a mismatch; the pairing is
// by construction correct (glibc free accepts both).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size > 0 ? size : 1)) {
    track_bytes(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) {
    track_bytes(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace ah;

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int hops = 0;
    std::function<void()> hop = [&] {
      if (++hops < 10000) sim.schedule(common::SimTime::micros(1), hop);
    };
    sim.schedule(common::SimTime::micros(1), hop);
    sim.run();
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

void BM_ResourceSubmitComplete(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Resource resource(sim, "cpu", {.servers = 2});
    for (int i = 0; i < 1000; ++i) {
      resource.submit(common::SimTime::micros(10), {});
    }
    sim.run();
    benchmark::DoNotOptimize(resource.completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_ResourceSubmitComplete);

void BM_MixSampling(benchmark::State& state) {
  const auto& mix = tpcw::Mix::standard(tpcw::WorkloadKind::kShopping);
  common::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.sample(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MixSampling);

void BM_SimplexStep(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  harmony::ParameterSpace space;
  for (std::size_t d = 0; d < dims; ++d) {
    space.add({"x" + std::to_string(d), 0, 100000, 50000});
  }
  harmony::SimplexTuner tuner(std::move(space));
  common::Rng rng(1);
  for (auto _ : state) {
    const auto point = tuner.ask();
    double cost = 0;
    for (const auto v : point) cost += static_cast<double>(v);
    tuner.tell(cost + rng.uniform());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimplexStep)->Arg(4)->Arg(23)->Arg(46);

void BM_FullTuningIteration(benchmark::State& state) {
  sim::Simulator sim;
  core::SystemModel system(sim, {});
  core::Experiment::Config config;
  config.browsers = 530;
  config.workload = tpcw::WorkloadKind::kShopping;
  core::Experiment experiment(system, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.run_iteration().wips);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullTuningIteration)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Parallel candidate evaluation: iterations/sec vs pool size.
// ---------------------------------------------------------------------------

struct ScalingSample {
  double iterations_per_sec = 0.0;
};
std::map<std::size_t, ScalingSample> g_scaling;  // threads -> rate

constexpr std::size_t kScalingReplicas = 8;
constexpr std::size_t kScalingBatch = 24;  // duplication simplex: 23 + 1

// A batch of in-bounds perturbations of the default 23-value configuration
// (the shape of the simplex exploration phase).
std::vector<harmony::PointI> scaling_batch() {
  const auto& catalogue = webstack::parameter_catalogue();
  const harmony::PointI defaults = webstack::default_values();
  std::vector<harmony::PointI> batch;
  for (std::size_t i = 0; i < kScalingBatch; ++i) {
    harmony::PointI point = defaults;
    const std::size_t d = i % point.size();
    const auto& spec = catalogue[d];
    const std::int64_t step =
        std::max<std::int64_t>(1, (spec.max_value - spec.min_value) / 8);
    point[d] = std::clamp(
        spec.default_value + static_cast<std::int64_t>(i / point.size() + 1) *
                                 step,
        spec.min_value, spec.max_value);
    batch.push_back(std::move(point));
  }
  return batch;
}

void BM_ParallelEvaluatorScaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  common::ThreadPool pool(threads);
  core::ParallelEvaluator::Options options;
  options.experiment.browsers = 200;
  options.experiment.workload = tpcw::WorkloadKind::kShopping;
  options.experiment.iteration.warmup = common::SimTime::seconds(5.0);
  options.experiment.iteration.measure = common::SimTime::seconds(20.0);
  options.replicas = kScalingReplicas;
  core::ParallelEvaluator evaluator(pool, options);
  const auto batch = scaling_batch();
  const auto apply = [](core::SystemModel& system,
                        const harmony::PointI& values) {
    system.apply_values_all(values);
  };
  std::size_t evaluations = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto results = evaluator.evaluate(batch, apply);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    evaluations += results.size();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  if (seconds > 0.0) {
    g_scaling[threads].iterations_per_sec =
        static_cast<double>(evaluations) / seconds;
  }
}
BENCHMARK(BM_ParallelEvaluatorScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Bytes-per-replica of the replica layout the scaling benchmark runs: one
// ModelImmutable amortised over the replicas, roles created on demand.
// Exact live-heap delta — host-independent, meaningful even when the
// speedup column is not ("valid": false).
double measure_replica_bytes() {
  core::Experiment::Config experiment;
  experiment.browsers = 200;  // the scaling benchmark's population
  core::SystemModel::Config topology;
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  topology.shared = core::make_model_immutable(topology, experiment);
  std::vector<std::unique_ptr<core::SystemModel>> systems;
  std::vector<std::unique_ptr<core::Experiment>> experiments;
  for (std::size_t r = 0; r < kScalingReplicas; ++r) {
    systems.push_back(std::make_unique<core::SystemModel>(topology));
    experiments.push_back(
        std::make_unique<core::Experiment>(*systems.back(), experiment));
  }
  const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) /
         static_cast<double>(kScalingReplicas);
}

// Dumps the scaling sweep as BENCH_parallel.json so the repo records the
// threads -> iterations/sec trajectory alongside the reproduction CSVs.
void write_parallel_json() {
  if (g_scaling.empty()) return;  // benchmark filtered out
  const double replica_bytes = measure_replica_bytes();
  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out == nullptr) return;
  const unsigned hw = std::thread::hardware_concurrency();
  const double base = g_scaling.count(1) != 0
                          ? g_scaling.at(1).iterations_per_sec
                          : 0.0;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"BM_ParallelEvaluatorScaling\",\n");
  std::fprintf(out, "  \"metric\": \"tuning iterations per second\",\n");
  std::fprintf(out, "  \"replicas\": %zu,\n", kScalingReplicas);
  std::fprintf(out, "  \"candidates_per_batch\": %zu,\n", kScalingBatch);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(out, "  \"valid\": %s,\n", hw > 1 ? "true" : "false");
  std::fprintf(out,
               "  \"note\": \"wall-clock speedup is bounded by "
               "hardware_concurrency on the recording machine; valid=false "
               "means a single-core host, where speedup <= 1.0 is "
               "meaningless.  bytes_per_replica is host-independent\",\n");
  std::fprintf(out, "  \"bytes_per_replica\": {\"shared\": %.0f},\n",
               replica_bytes);
  std::fprintf(out, "  \"results\": [\n");
  std::size_t written = 0;
  for (const auto& [threads, sample] : g_scaling) {
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"iterations_per_sec\": %.3f, "
        "\"speedup_vs_1_thread\": %.3f}%s\n",
        threads, sample.iterations_per_sec,
        base > 0.0 ? sample.iterations_per_sec / base : 0.0,
        ++written < g_scaling.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_parallel.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(stderr,
                 "*** WARNING: hardware_concurrency=%u on this host. ***\n"
                 "*** BM_ParallelEvaluatorScaling cannot show real     ***\n"
                 "*** speedup; BENCH_parallel.json will carry          ***\n"
                 "*** \"valid\": false.                                  ***\n",
                 std::thread::hardware_concurrency());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_parallel_json();
  return 0;
}
