// Micro-benchmarks of the simulation and tuning primitives
// (google-benchmark).  These are engineering benchmarks, not paper
// reproductions: they track the cost of the hot paths that determine how
// many tuning iterations per wall-clock second the harness sustains.  The
// event queue, LRU cache and Zipf sampler are timed in bench_throughput
// instead, whose BENCH_throughput.json keeps their before/after record.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "harmony/simplex.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "tpcw/mix.hpp"

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

}  // namespace

BENCHMARK_MAIN();
