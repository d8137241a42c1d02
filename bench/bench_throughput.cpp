// End-to-end simulation-throughput benchmark.
//
// The quantity that bounds how many Harmony iterations the harness can
// afford is simulated-requests-per-second of wall clock: every tuning
// iteration replays 1200 s of TPC-W traffic against n+1 simplex candidate
// configurations (paper §III).  This bench drives a full 3-tier cluster
// (SystemModel + Workload) under the three standard mixes and reports
//
//   * events/sec        — discrete events executed per wall-clock second
//   * requests/sec      — simulated web interactions per wall-clock second
//   * wall s per sim s  — how much wall clock one simulated second costs
//
// plus two micro sections (Zipf sampling, LRU cache churn) and a
// per-request heap-allocation count measured with a global operator-new
// hook, so the three hot-path optimisations this bench was built to track
// (zero-allocation request path, slab-backed LRU, O(1) Zipf sampling) each
// have a number.  Results land in BENCH_throughput.json in the working
// directory, with the pre-optimisation baseline embedded for comparison.
//
// Usage: bench_throughput [--smoke] [--metrics <path>] [--trace <path>]
//   --smoke    seconds-long run exercising the full wiring + JSON emission
//              (registered as a ctest); numbers are not meaningful.
//   --metrics  write the Shopping run's full registry snapshot (JSON).
//   --trace    write the Shopping run's span CSV (proxy/app/db hops).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/system_model.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "tpcw/metrics.hpp"
#include "tpcw/mix.hpp"
#include "tpcw/workload.hpp"
#include "tpcw/zipf.hpp"
#include "webstack/lru_cache.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (requests-path allocation audit).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace ah;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Baseline: this bench built from the commit before plain-data closures
// (each event a 24-byte node plus a 64-byte closure with a move/destroy
// manager in a separate chunk) and run on the recording host.  Median of
// ten full runs, in two sets of five alternated with runs of the current
// build.
// Re-measured numbers land in "after"; keeping the baseline in-source makes
// the JSON self-contained and the speedup claims auditable.
// ---------------------------------------------------------------------------

struct EndToEndNumbers {
  double events_per_sec = 0.0;
  double requests_per_sec = 0.0;
  double wall_per_sim_second = 0.0;
};

struct BaselineNumbers {
  double zipf_samples_per_sec = 0.0;
  double lru_ops_per_sec = 0.0;
  double event_queue_ops_per_sec = 0.0;
  double allocs_per_request = 0.0;
  EndToEndNumbers mixes[3];  // Browsing, Shopping, Ordering
};

constexpr BaselineNumbers kBaseline = {
    /*zipf_samples_per_sec=*/64.69e6,
    /*lru_ops_per_sec=*/15.20e6,
    /*event_queue_ops_per_sec=*/41.50e6,
    /*allocs_per_request=*/0.0,
    {
        /*Browsing=*/{9984161, 1248141, 1.031e-04},
        /*Shopping=*/{9318798, 859283, 1.741e-04},
        /*Ordering=*/{9577746, 517336, 2.482e-04},
    },
};

// ---------------------------------------------------------------------------
// Section 1: Zipf sampling throughput.
// ---------------------------------------------------------------------------

double bench_zipf(std::uint64_t draws) {
  tpcw::ZipfSampler zipf(10000, 0.8);
  common::Rng rng(3);
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < draws; ++i) sink += zipf.sample(rng);
  const double elapsed = seconds_since(start);
  // Keep the loop from being optimised out.
  if (sink == 0xdeadbeef) std::printf("!");
  return static_cast<double>(draws) / elapsed;
}

// ---------------------------------------------------------------------------
// Section 2: LRU cache churn (the proxy memory-cache access pattern).
// ---------------------------------------------------------------------------

double bench_lru(std::uint64_t ops) {
  webstack::LruCache cache(8LL * 1024 * 1024);
  common::Rng rng(7);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 4095));
    if (cache.lookup(key) < 0) cache.insert(key, 4096 + (key % 8192));
  }
  const double elapsed = seconds_since(start);
  if (cache.hits() == 0xdeadbeef) std::printf("!");
  return static_cast<double>(ops) / elapsed;
}

// ---------------------------------------------------------------------------
// Section 3: BM_EventQueueMixed — scheduler push/pop/cancel throughput.
//
// Drives sim::EventQueue directly with the operation blend the cluster
// simulation produces: a steady population of 530 pending events (think
// timers, service completions, propagation latencies), every pop of one
// followed by a replacement push at a simulation-realistic delta, and the
// router's timeout pattern: every third request hop arms a 500 ms timeout,
// which the hop's reply cancels 90 % of the time; the rest fire and are not
// replaced.  Each closure records its tag when run, so the loop knows which
// hop a popped event completes.  Deltas are drawn from a fixed-seed mixture
// so consecutive runs exercise identical schedules; the reported rate counts
// individual queue operations (push + pop + cancel).  This isolates
// scheduler regressions from the end-to-end number, which also moves with
// workload-model changes.
// ---------------------------------------------------------------------------

struct EventQueueRun {
  double ops_per_sec = 0.0;
  std::size_t final_size = 0;  // pending events when the loop ends
  std::uint64_t cancels = 0;
  std::uint64_t missed_cancels = 0;  // the timeout had fired already

  [[nodiscard]] double missed_share() const {
    return cancels > 0 ? static_cast<double>(missed_cancels) /
                             static_cast<double>(cancels)
                       : 0.0;
  }
};

EventQueueRun bench_event_queue(std::uint64_t iterations) {
  constexpr std::size_t kPopulation = 530;
  constexpr std::uint32_t kPlain = 0;    // think timer or untimed hop
  constexpr std::uint32_t kTimeout = 1;  // a hop timeout firing
  constexpr std::uint32_t kFirstHop = 2;  // kFirstHop + timeout slot

  sim::EventQueue q;
  common::Rng rng(11);
  common::SimTime now = common::SimTime::zero();
  std::uint32_t popped = kPlain;

  // Returns the delta and whether it is a request hop (service completion
  // or propagation) rather than a think time.
  const auto draw_delta = [&rng]() -> std::pair<common::SimTime, bool> {
    const double u = rng.uniform();
    if (u < 0.45) {  // CPU/disk/NIC service completion
      return {common::SimTime::micros(10 + rng.uniform_int(0, 1990)), true};
    }
    if (u < 0.70) {  // propagation latency + queueing
      return {common::SimTime::micros(200 + rng.uniform_int(0, 4800)), true};
    }
    // Think time: exponential, mean 7 s (TPC-W).
    return {common::SimTime::seconds(-7.0 * std::log(1.0 - rng.uniform())),
            false};
  };
  const auto push_tagged = [&q, &popped](common::SimTime at,
                                         std::uint32_t tag) {
    return q.push(at, [&popped, tag] { popped = tag; });
  };

  // Armed timeouts by slot; a hop event carries its slot in its tag.
  std::vector<sim::EventId> timeouts(kPopulation);
  std::vector<std::uint32_t> free_slots;
  free_slots.reserve(kPopulation);
  for (std::uint32_t k = 0; k < kPopulation; ++k) {
    free_slots.push_back(static_cast<std::uint32_t>(kPopulation) - 1 - k);
  }

  // Steady-state population: one pending event per emulated browser.
  for (std::size_t i = 0; i < kPopulation; ++i) {
    push_tagged(draw_delta().first, kPlain);
  }

  EventQueueRun run;
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    q.run_next(now);
    ++ops;
    if (popped == kTimeout) continue;  // a fired timeout is not replaced
    if (popped >= kFirstHop) {
      const std::uint32_t slot = popped - kFirstHop;
      if (rng.uniform() < 0.9) {  // the reply arrived: cancel its timeout
        ++run.cancels;
        if (!q.cancel(timeouts[slot])) ++run.missed_cancels;
        ++ops;
      }
      free_slots.push_back(slot);
    }
    const auto [delta, hop] = draw_delta();
    std::uint32_t tag = kPlain;
    // At most kPopulation hops are pending, so a slot is always free.
    if (hop && i % 3 == 0) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      timeouts[slot] =
          push_tagged(now + common::SimTime::millis(500), kTimeout);
      tag = kFirstHop + slot;
      ++ops;
    }
    push_tagged(now + delta, tag);
    ++ops;
  }
  const double elapsed = seconds_since(start);
  run.ops_per_sec = static_cast<double>(ops) / elapsed;
  run.final_size = q.size();
  return run;
}

// ---------------------------------------------------------------------------
// Sections 4+5: full 3-tier cluster under a TPC-W mix.
// ---------------------------------------------------------------------------

/// In-window latency percentiles (exact-rank, from the meter's histogram).
struct LatencySummary {
  std::uint64_t count = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
};

struct ClusterRun {
  EndToEndNumbers numbers;
  LatencySummary latency;
  double allocs_per_request = 0.0;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
};

ClusterRun run_cluster(tpcw::WorkloadKind kind, double warmup_s,
                       double measure_s,
                       const std::string& metrics_path = std::string(),
                       const std::string& trace_path = std::string()) {
  sim::Simulator sim;
  core::SystemModel system(sim, {});
  obs::TraceRecorder trace;
  if (!trace_path.empty()) system.set_trace_recorder(&trace);
  tpcw::WipsMeter meter;
  tpcw::Workload::Config config;
  config.browsers = 530;
  tpcw::Workload workload(sim, system.frontend(0), &tpcw::Mix::standard(kind),
                          meter, config);
  meter.arm(common::SimTime::seconds(warmup_s),
            common::SimTime::seconds(warmup_s + measure_s));
  workload.start();
  sim.run_until(common::SimTime::seconds(warmup_s));

  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t issued_before = workload.interactions_issued();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  sim.run_until(common::SimTime::seconds(warmup_s + measure_s));
  const double wall = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

  ClusterRun run;
  const obs::Histogram& hist = meter.latency_histogram();
  run.latency = {hist.count(), hist.p50_us(), hist.p95_us(), hist.p99_us(),
                 hist.max_us()};
  if (!metrics_path.empty() && !system.metrics().write_json(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty() && !trace.write_csv(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  run.events = sim.events_executed() - events_before;
  run.requests = workload.interactions_issued() - issued_before;
  run.sim_seconds = measure_s;
  run.wall_seconds = wall;
  run.numbers.events_per_sec = static_cast<double>(run.events) / wall;
  run.numbers.requests_per_sec = static_cast<double>(run.requests) / wall;
  run.numbers.wall_per_sim_second = wall / measure_s;
  run.allocs_per_request =
      run.requests > 0
          ? static_cast<double>(allocs) / static_cast<double>(run.requests)
          : 0.0;
  return run;
}

void print_end_to_end(const char* name, const ClusterRun& run) {
  std::printf(
      "  %-9s %9.0f events/s  %7.0f req/s  %.4g wall-s per sim-s  "
      "%.2f allocs/req  p50/p95/p99 %.1f/%.1f/%.1f ms  "
      "(%llu events, %llu requests, %.1f sim-s in %.2f s)\n",
      name, run.numbers.events_per_sec, run.numbers.requests_per_sec,
      run.numbers.wall_per_sim_second, run.allocs_per_request,
      static_cast<double>(run.latency.p50_us) / 1e3,
      static_cast<double>(run.latency.p95_us) / 1e3,
      static_cast<double>(run.latency.p99_us) / 1e3,
      static_cast<unsigned long long>(run.events),
      static_cast<unsigned long long>(run.requests), run.sim_seconds,
      run.wall_seconds);
}

void write_json(double zipf_rate, double lru_rate, const EventQueueRun& queue,
                const ClusterRun (&runs)[3], bool smoke) {
  std::FILE* out = std::fopen("BENCH_throughput.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_throughput.json\n");
    return;
  }
  static const char* kMixNames[3] = {"Browsing", "Shopping", "Ordering"};
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"bench_throughput\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out,
               "  \"note\": \"single-timeline end-to-end throughput; "
               "absolute rates depend on the recording host (shared "
               "container, no isolation), ratios before/after are the "
               "meaningful signal\",\n");
  std::fprintf(out, "  \"topology\": \"1 line x (1 proxy + 1 app + 1 db)\",\n");
  std::fprintf(out, "  \"browsers\": 530,\n");
  std::fprintf(out, "  \"before\": {\n");
  std::fprintf(out,
               "    \"provenance\": \"median of ten full runs of the "
               "build before plain-data closures (c47c34e) on the same "
               "host, in two sets of five alternated with runs of the after "
               "build: each "
               "event a 24-byte node plus a 64-byte closure with a "
               "move/destroy manager in a separate chunk\",\n");
  std::fprintf(out, "    \"zipf_samples_per_sec\": %.0f,\n",
               kBaseline.zipf_samples_per_sec);
  std::fprintf(out, "    \"lru_ops_per_sec\": %.0f,\n",
               kBaseline.lru_ops_per_sec);
  std::fprintf(out, "    \"event_queue_ops_per_sec\": %.0f,\n",
               kBaseline.event_queue_ops_per_sec);
  std::fprintf(out, "    \"request_path_allocs_per_request\": %.1f,\n",
               kBaseline.allocs_per_request);
  std::fprintf(out, "    \"end_to_end\": [\n");
  for (int i = 0; i < 3; ++i) {
    std::fprintf(out,
                 "      {\"mix\": \"%s\", \"events_per_sec\": %.0f, "
                 "\"requests_per_sec\": %.0f, "
                 "\"wall_s_per_sim_s\": %.4g}%s\n",
                 kMixNames[i], kBaseline.mixes[i].events_per_sec,
                 kBaseline.mixes[i].requests_per_sec,
                 kBaseline.mixes[i].wall_per_sim_second, i < 2 ? "," : "");
  }
  std::fprintf(out, "    ]\n  },\n");
  std::fprintf(out, "  \"after\": {\n");
  std::fprintf(out,
               "    \"provenance\": \"plain-data closures: a trivially "
               "copyable InlineFunction and one 64-byte record per event "
               "(time, generation, links, closure); BM_EventQueueMixed "
               "holds a steady ~530-event queue\",\n");
  std::fprintf(out, "    \"zipf_samples_per_sec\": %.0f,\n", zipf_rate);
  std::fprintf(out, "    \"lru_ops_per_sec\": %.0f,\n", lru_rate);
  std::fprintf(out, "    \"event_queue_ops_per_sec\": %.0f,\n",
               queue.ops_per_sec);
  std::fprintf(out, "    \"event_queue_pending_at_end\": %zu,\n",
               queue.final_size);
  std::fprintf(out, "    \"event_queue_missed_cancel_share\": %.4f,\n",
               queue.missed_share());
  std::fprintf(out, "    \"request_path_allocs_per_request\": %.2f,\n",
               runs[1].allocs_per_request);
  std::fprintf(out, "    \"end_to_end\": [\n");
  for (int i = 0; i < 3; ++i) {
    std::fprintf(out,
                 "      {\"mix\": \"%s\", \"events_per_sec\": %.0f, "
                 "\"requests_per_sec\": %.0f, \"wall_s_per_sim_s\": %.4g, "
                 "\"events\": %llu, \"requests\": %llu, "
                 "\"allocs_per_request\": %.2f, "
                 "\"latency\": {\"count\": %llu, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}}%s\n",
                 kMixNames[i], runs[i].numbers.events_per_sec,
                 runs[i].numbers.requests_per_sec,
                 runs[i].numbers.wall_per_sim_second,
                 static_cast<unsigned long long>(runs[i].events),
                 static_cast<unsigned long long>(runs[i].requests),
                 runs[i].allocs_per_request,
                 static_cast<unsigned long long>(runs[i].latency.count),
                 static_cast<double>(runs[i].latency.p50_us) / 1e3,
                 static_cast<double>(runs[i].latency.p95_us) / 1e3,
                 static_cast<double>(runs[i].latency.p99_us) / 1e3,
                 static_cast<double>(runs[i].latency.max_us) / 1e3,
                 i < 2 ? "," : "");
  }
  std::fprintf(out, "    ]\n  },\n");
  std::fprintf(out, "  \"speedup\": {\n");
  const bool have_baseline = kBaseline.zipf_samples_per_sec > 0.0;
  std::fprintf(out, "    \"zipf\": %.3f,\n",
               have_baseline ? zipf_rate / kBaseline.zipf_samples_per_sec
                             : 0.0);
  std::fprintf(out, "    \"lru\": %.3f,\n",
               have_baseline ? lru_rate / kBaseline.lru_ops_per_sec : 0.0);
  std::fprintf(out, "    \"event_queue\": %.3f,\n",
               kBaseline.event_queue_ops_per_sec > 0.0
                   ? queue.ops_per_sec / kBaseline.event_queue_ops_per_sec
                   : 0.0);
  // Both rates: a change that removes events (each one then does more)
  // shows its gain in requests/s, not in events/s.
  const auto ratios = [&](const char* key, double EndToEndNumbers::*rate,
                          const char* tail) {
    std::fprintf(out, "    \"%s\": [", key);
    for (int i = 0; i < 3; ++i) {
      const double base = kBaseline.mixes[i].*rate;
      std::fprintf(out, "%.3f%s",
                   base > 0.0 ? runs[i].numbers.*rate / base : 0.0,
                   i < 2 ? ", " : "");
    }
    std::fprintf(out, "]%s\n", tail);
  };
  ratios("end_to_end_events_per_sec", &EndToEndNumbers::events_per_sec, ",");
  ratios("end_to_end_requests_per_sec", &EndToEndNumbers::requests_per_sec,
         "");
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_throughput.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path = bench::string_flag(argc, argv, "--metrics");
  const std::string trace_path = bench::string_flag(argc, argv, "--trace");
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::uint64_t zipf_draws = smoke ? 200'000 : 40'000'000;
  const std::uint64_t lru_ops = smoke ? 200'000 : 20'000'000;
  // Full mode replays one paper tuning iteration (1200 s) per mix.
  const double warmup_s = smoke ? 5.0 : 30.0;
  const double measure_s = smoke ? 10.0 : 1200.0;

  std::printf("bench_throughput%s\n", smoke ? " (--smoke)" : "");
  std::printf("== micro: Zipf sampling (n=10000, alpha=0.8) ==\n");
  const double zipf_rate = bench_zipf(zipf_draws);
  std::printf("  %.1f M samples/s\n", zipf_rate / 1e6);

  std::printf("== micro: LRU cache mixed lookup/insert ==\n");
  const double lru_rate = bench_lru(lru_ops);
  std::printf("  %.1f M ops/s\n", lru_rate / 1e6);

  std::printf("== micro: BM_EventQueueMixed push/pop/cancel ==\n");
  const std::uint64_t queue_iters = smoke ? 200'000 : 10'000'000;
  const EventQueueRun queue = bench_event_queue(queue_iters);
  std::printf("  %.1f M queue-ops/s, %zu pending at the end, %.2f %% of "
              "%llu cancels missed\n",
              queue.ops_per_sec / 1e6, queue.final_size,
              100.0 * queue.missed_share(),
              static_cast<unsigned long long>(queue.cancels));

  std::printf(
      "== end-to-end: 3-tier cluster, 530 browsers, %.0f sim-s measured ==\n",
      measure_s);
  ClusterRun runs[3];
  static const tpcw::WorkloadKind kKinds[3] = {tpcw::WorkloadKind::kBrowsing,
                                               tpcw::WorkloadKind::kShopping,
                                               tpcw::WorkloadKind::kOrdering};
  static const char* kNames[3] = {"Browsing", "Shopping", "Ordering"};
  for (int i = 0; i < 3; ++i) {
    // Telemetry opt-ins attach to the Shopping run (the canonical mix).
    const bool telemetry = i == 1;
    runs[i] = run_cluster(kKinds[i], warmup_s, measure_s,
                          telemetry ? metrics_path : std::string(),
                          telemetry ? trace_path : std::string());
    print_end_to_end(kNames[i], runs[i]);
  }

  write_json(zipf_rate, lru_rate, queue, runs, smoke);
  return 0;
}
