// Cluster-scale benchmark: how the per-line timelines and the shared
// popularity table change what one process can hold.
//
// Two questions, two sections:
//
//   * scale sweep   — events/sec and resident bytes per node as the
//                     cluster grows from 1 work line (8 nodes) to 128
//                     (1024 nodes), each size driven at 1/4/8 worker
//                     threads.  Per-line event order is thread-count
//                     independent, so every cell computes identical
//                     virtual histories; only the wall clock moves.
//   * sharing       — resident bytes per system when 8 independent
//                     single-line systems share one popularity CDF
//                     (Config::shared).
//
// Resident bytes are tracked with a global operator-new/delete hook that
// adds/subtracts malloc_usable_size() of every live allocation — exact
// live-heap accounting, immune to allocator free-list retention.
//
// Results land in BENCH_scale.json.  Wall-clock speedup is bounded by the
// recording host: when hardware_concurrency <= 1 the thread sweep cannot
// show real scaling and the JSON is marked "valid": false.
//
// Usage: bench_scale [--smoke]
//   --smoke    two small sizes, one short iteration (registered as a
//              ctest); numbers are not meaningful.
#include <malloc.h>  // malloc_usable_size (glibc)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/model_immutable.hpp"
#include "core/system_model.hpp"

// ---------------------------------------------------------------------------
// Live-heap accounting (operator new/delete replacements).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

void track(void* p) {
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
    track(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) {
    track(p);
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
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// 8 nodes per work line (3 proxy + 3 app + 2 db): the smallest line shape
// with redundancy in every tier, so 128 lines = 1024 nodes.
constexpr core::SystemModel::LineSpec kLineShape{3, 3, 2};
constexpr std::size_t kNodesPerLine = 8;
constexpr int kBrowsersPerLine = 100;

core::SystemModel::Config topology_for(std::size_t lines) {
  core::SystemModel::Config config;
  config.lines.assign(lines, kLineShape);
  return config;
}

core::Experiment::Config experiment_for(std::size_t lines) {
  core::Experiment::Config config;
  config.browsers = static_cast<int>(lines) * kBrowsersPerLine;
  config.iteration.warmup = common::SimTime::seconds(5.0);
  config.iteration.measure = common::SimTime::seconds(20.0);
  config.iteration.cooldown = common::SimTime::seconds(2.0);
  return config;
}

// ---------------------------------------------------------------------------
// Section 1: events/sec and bytes/node vs cluster size.
// ---------------------------------------------------------------------------

struct ThreadSample {
  std::size_t threads = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

struct ScalePoint {
  std::size_t lines = 0;
  std::size_t nodes = 0;
  std::int64_t model_bytes = 0;   // SystemModel + Experiment, fully built
  double bytes_per_node = 0.0;
  std::vector<ThreadSample> samples;
};

/// Resident footprint: everything a fully wired model + workload holds.
ScalePoint measure_footprint(std::size_t lines) {
  ScalePoint point;
  point.lines = lines;
  const std::int64_t before = live_bytes();
  core::SystemModel system(topology_for(lines));
  core::Experiment experiment(system, experiment_for(lines));
  point.model_bytes = live_bytes() - before;
  point.nodes = system.cluster().node_count();
  point.bytes_per_node = static_cast<double>(point.model_bytes) /
                         static_cast<double>(point.nodes);
  return point;
}

/// Throughput: a fresh system per thread count runs the identical virtual
/// history (per-line order is thread-independent), so cells differ only in
/// wall clock.
void measure_throughput(ScalePoint& point,
                        const std::vector<std::size_t>& thread_counts,
                        std::size_t iterations) {
  const std::size_t lines = point.lines;
  for (const std::size_t threads : thread_counts) {
    core::SystemModel system(topology_for(lines));
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<common::ThreadPool>(threads);
      system.set_thread_pool(pool.get());
    }
    core::Experiment experiment(system, experiment_for(lines));
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      experiment.run_iteration();
    }
    const double wall = seconds_since(start);
    system.set_thread_pool(nullptr);

    ThreadSample sample;
    sample.threads = threads;
    for (std::size_t li = 0; li < lines; ++li) {
      sample.events += system.line_simulator(li).events_executed();
    }
    sample.wall_seconds = wall;
    sample.events_per_sec =
        wall > 0.0 ? static_cast<double>(sample.events) / wall : 0.0;
    point.samples.push_back(sample);
  }
}

// ---------------------------------------------------------------------------
// Section 2: bytes/system with the shared popularity table.
// ---------------------------------------------------------------------------

struct SharingSample {
  std::int64_t total_bytes = 0;
  double bytes_per_system = 0.0;
};

constexpr std::size_t kSharingSystems = 8;

/// Builds `kSharingSystems` single-line systems (SystemModel + Experiment)
/// on one popularity table and returns the live-heap cost.  The table is
/// built inside the measured region, amortised over the systems — that is
/// the honest marginal cost.
SharingSample build_shared_systems() {
  core::SystemModel::Config topology;  // default single line, 3 nodes
  const core::Experiment::Config experiment = experiment_for(1);

  const std::int64_t before = live_bytes();
  const std::shared_ptr<const tpcw::ZipfSampler> popularity =
      core::make_model_immutable(topology, experiment);
  std::vector<std::unique_ptr<core::SystemModel>> systems;
  std::vector<std::unique_ptr<core::Experiment>> experiments;
  for (std::size_t r = 0; r < kSharingSystems; ++r) {
    core::SystemModel::Config config = topology;
    config.shared = popularity;
    systems.push_back(std::make_unique<core::SystemModel>(config));
    experiments.push_back(
        std::make_unique<core::Experiment>(*systems.back(), experiment));
  }

  SharingSample sample;
  sample.total_bytes = live_bytes() - before;
  sample.bytes_per_system = static_cast<double>(sample.total_bytes) /
                            static_cast<double>(kSharingSystems);
  return sample;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

void write_json(const std::vector<ScalePoint>& points,
                const SharingSample& shared, std::size_t iterations, bool valid,
                bool smoke) {
  std::FILE* out = std::fopen("BENCH_scale.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scale.json\n");
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"bench_scale\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"valid\": %s,\n", valid ? "true" : "false");
  std::fprintf(out,
               "  \"note\": \"events/sec cells are wall-clock bound; with "
               "hardware_concurrency <= 1 the thread sweep cannot show real "
               "scaling (valid=false).  bytes figures are exact live-heap "
               "deltas and host-independent\",\n");
  std::fprintf(out, "  \"line_shape\": \"3 proxy + 3 app + 2 db\",\n");
  std::fprintf(out, "  \"browsers_per_line\": %d,\n", kBrowsersPerLine);
  std::fprintf(out, "  \"iterations_per_cell\": %zu,\n", iterations);
  std::fprintf(out, "  \"scale\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(out,
                 "    {\"lines\": %zu, \"nodes\": %zu, "
                 "\"model_bytes\": %lld, \"bytes_per_node\": %.0f,\n",
                 p.lines, p.nodes, static_cast<long long>(p.model_bytes),
                 p.bytes_per_node);
    std::fprintf(out, "     \"threads\": [\n");
    const double base = p.samples.empty() ? 0.0 : p.samples[0].events_per_sec;
    for (std::size_t t = 0; t < p.samples.size(); ++t) {
      const ThreadSample& s = p.samples[t];
      std::fprintf(out,
                   "       {\"threads\": %zu, \"events\": %llu, "
                   "\"wall_seconds\": %.3f, \"events_per_sec\": %.0f, "
                   "\"speedup_vs_1_thread\": %.3f}%s\n",
                   s.threads, static_cast<unsigned long long>(s.events),
                   s.wall_seconds, s.events_per_sec,
                   base > 0.0 ? s.events_per_sec / base : 0.0,
                   t + 1 < p.samples.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"sharing\": {\n");
  std::fprintf(out, "    \"systems\": %zu,\n", kSharingSystems);
  std::fprintf(out, "    \"topology\": \"1 line x (1 proxy + 1 app + 1 db)\",\n");
  std::fprintf(out,
               "    \"shared\": {\"layout\": \"lazy roles, one "
               "popularity CDF\", \"total_bytes\": %lld, "
               "\"bytes_per_system\": %.0f}\n",
               static_cast<long long>(shared.total_bytes),
               shared.bytes_per_system);
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_scale.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const bool valid = hw > 1;
  if (!valid) {
    std::fprintf(stderr,
                 "*** WARNING: hardware_concurrency=%u on this host. ***\n"
                 "*** The 1/4/8-thread events/sec cells cannot show real  ***\n"
                 "*** scaling; BENCH_scale.json carries \"valid\": false.   "
                 "***\n",
                 hw);
  }

  const std::vector<std::size_t> line_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 8, 32, 128};
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 4, 8};
  const std::size_t iterations = smoke ? 1 : 2;

  // Every byte figure is taken before the first throughput cell starts a
  // ThreadPool: once worker threads have run, the heap's layout depends on
  // their timing, and the usable sizes of later blocks move between runs.
  std::vector<ScalePoint> points;
  for (const std::size_t lines : line_counts) {
    points.push_back(measure_footprint(lines));
  }
  const SharingSample shared = build_shared_systems();

  std::printf("bench_scale%s\n", smoke ? " (--smoke)" : "");
  std::printf("== scale sweep: %zu nodes/line, %d browsers/line ==\n",
              kNodesPerLine, kBrowsersPerLine);
  for (ScalePoint& p : points) {
    measure_throughput(p, thread_counts, iterations);
    std::printf("  %4zu lines (%4zu nodes): %8.1f KiB/node |", p.lines,
                p.nodes, p.bytes_per_node / 1024.0);
    for (const ThreadSample& s : p.samples) {
      std::printf("  t=%zu %9.0f ev/s", s.threads, s.events_per_sec);
    }
    std::printf("\n");
  }

  std::printf("== sharing: %zu systems on one popularity table ==\n",
              kSharingSystems);
  std::printf("  shared %10.1f KiB/system\n",
              shared.bytes_per_system / 1024.0);

  write_json(points, shared, iterations, valid, smoke);
  return 0;
}
