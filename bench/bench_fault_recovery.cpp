// Fault-recovery benchmark: goodput trajectory through a scripted crash.
//
// Drives a 2-proxy/2-app/2-db cluster under the Shopping mix with fault
// tolerance enabled, crashes one db node mid-run (the tier that actually
// bottlenecks this mix, so the dip is visible) and restarts it later,
// and samples WIPS in fixed buckets across the whole timeline.  Reported:
//
//   * healthy baseline WIPS        — mean bucket WIPS before the crash
//   * detection time               — crash until the victim is marked down
//   * outage goodput ratio         — mean outage-bucket WIPS / baseline
//   * recovery time                — restart until a bucket is back within
//                                    90 % of baseline
//
// The scenario is fully scripted (sim::ScenarioPlan) and single-timeline, so
// every number is deterministic for a given seed.  Results land in
// BENCH_fault_recovery.json.
//
// Usage: bench_fault_recovery [--smoke] [--metrics <path>] [--trace <path>]
//   --smoke    compressed timeline for the ctest smoke run.
//   --metrics  write the end-of-run registry snapshot (JSON).
//   --trace    write the run's span CSV (proxy/app/db hops).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/system_model.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tpcw/metrics.hpp"
#include "tpcw/mix.hpp"
#include "tpcw/workload.hpp"

namespace {

using namespace ah;

struct Scenario {
  double bucket_s = 10.0;
  double crash_at_s = 120.0;
  double restart_at_s = 300.0;
  double end_s = 480.0;
};

struct Bucket {
  double start_s = 0.0;
  double wips = 0.0;
  double p95_ms = 0.0;
  bool victim_marked_up = true;
};

void print_latency(std::FILE* out, const char* key, const ah::obs::Histogram& h,
                   const char* suffix) {
  std::fprintf(out,
               "  \"%s\": {\"count\": %llu, \"p50_ms\": %.3f, "
               "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}%s\n",
               key, static_cast<unsigned long long>(h.count()),
               static_cast<double>(h.p50_us()) / 1e3,
               static_cast<double>(h.p95_us()) / 1e3,
               static_cast<double>(h.p99_us()) / 1e3,
               static_cast<double>(h.max_us()) / 1e3, suffix);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path = bench::string_flag(argc, argv, "--metrics");
  const std::string trace_path = bench::string_flag(argc, argv, "--trace");
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Scenario scenario;
  if (smoke) {
    scenario.bucket_s = 5.0;
    scenario.crash_at_s = 30.0;
    scenario.restart_at_s = 60.0;
    scenario.end_s = 100.0;
  }

  sim::Simulator sim;
  core::SystemModel::Config topology;
  topology.lines = {core::SystemModel::LineSpec{2, 2, 2}};
  core::SystemModel system(sim, topology);
  system.enable_fault_tolerance({});
  obs::TraceRecorder trace;
  if (!trace_path.empty()) system.set_trace_recorder(&trace);

  const auto victim =
      system.cluster().tier(cluster::TierKind::kDb).members()[1];
  const std::string plan_text =
      "crash:" + std::to_string(victim) + "@" +
      std::to_string(scenario.crash_at_s) + "; restart:" +
      std::to_string(victim) + "@" + std::to_string(scenario.restart_at_s);
  const auto plan = sim::ScenarioPlan::parse(plan_text);
  if (!plan.has_value()) {
    std::fprintf(stderr, "internal: bad fault plan '%s'\n", plan_text.c_str());
    return 1;
  }
  system.install_scenario(*plan);

  tpcw::WipsMeter meter;
  tpcw::Workload::Config workload_config;
  workload_config.browsers = smoke ? 120 : 900;
  tpcw::Workload workload(sim, system.frontend(0),
                          &tpcw::Mix::standard(tpcw::WorkloadKind::kShopping),
                          meter, workload_config);
  workload.start();

  std::printf("bench_fault_recovery%s: crash db node %u @%.0fs, "
              "restart @%.0fs\n",
              smoke ? " (--smoke)" : "", victim, scenario.crash_at_s,
              scenario.restart_at_s);

  std::vector<Bucket> buckets;
  double detection_s = -1.0;
  // Latency distributions merged across bucket windows: whole run plus the
  // healthy (pre-crash) and outage (crash..restart) phases separately.
  obs::Histogram latency_all;
  obs::Histogram latency_healthy;
  obs::Histogram latency_outage;
  for (double t = 0.0; t < scenario.end_s; t += scenario.bucket_s) {
    meter.arm(common::SimTime::seconds(t),
              common::SimTime::seconds(t + scenario.bucket_s));
    sim.run_until(common::SimTime::seconds(t + scenario.bucket_s));
    Bucket bucket;
    bucket.start_s = t;
    bucket.wips = meter.wips();
    const obs::Histogram& window = meter.latency_histogram();
    bucket.p95_ms = static_cast<double>(window.p95_us()) / 1e3;
    latency_all.merge(window);
    if (t + scenario.bucket_s <= scenario.crash_at_s) {
      latency_healthy.merge(window);
    } else if (t >= scenario.crash_at_s &&
               t + scenario.bucket_s <= scenario.restart_at_s) {
      latency_outage.merge(window);
    }
    bucket.victim_marked_up = system.cluster().node(victim).marked_up();
    if (detection_s < 0.0 && !bucket.victim_marked_up) {
      // Bucket granularity; the true mark-down is inside this bucket.
      detection_s = t + scenario.bucket_s - scenario.crash_at_s;
    }
    buckets.push_back(bucket);
  }

  // Baseline: all full buckets before the crash, skipping the first two
  // (cache warm-up).
  double baseline = 0.0;
  int baseline_count = 0;
  for (const Bucket& bucket : buckets) {
    if (bucket.start_s + scenario.bucket_s > scenario.crash_at_s) break;
    if (bucket.start_s < 2.0 * scenario.bucket_s) continue;
    baseline += bucket.wips;
    ++baseline_count;
  }
  if (baseline_count > 0) baseline /= baseline_count;

  double outage = 0.0;
  int outage_count = 0;
  for (const Bucket& bucket : buckets) {
    if (bucket.start_s < scenario.crash_at_s ||
        bucket.start_s + scenario.bucket_s > scenario.restart_at_s) {
      continue;
    }
    outage += bucket.wips;
    ++outage_count;
  }
  if (outage_count > 0) outage /= outage_count;

  double recovery_s = -1.0;
  for (const Bucket& bucket : buckets) {
    if (bucket.start_s < scenario.restart_at_s) continue;
    if (baseline > 0.0 && bucket.wips >= 0.9 * baseline) {
      recovery_s = bucket.start_s + scenario.bucket_s - scenario.restart_at_s;
      break;
    }
  }

  std::printf("  baseline %.1f WIPS, outage %.1f WIPS (%.0f%%), "
              "detected in %.1fs, recovered in %.1fs\n",
              baseline, outage,
              baseline > 0.0 ? 100.0 * outage / baseline : 0.0, detection_s,
              recovery_s);

  std::FILE* out = std::fopen("BENCH_fault_recovery.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fault_recovery.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"bench_fault_recovery\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"topology\": \"1 line x (2 proxy + 2 app + 2 db)\",\n");
  std::fprintf(out, "  \"browsers\": %d,\n", workload_config.browsers);
  std::fprintf(out, "  \"fault_plan\": \"%s\",\n", plan_text.c_str());
  std::fprintf(out, "  \"baseline_wips\": %.2f,\n", baseline);
  std::fprintf(out, "  \"outage_wips\": %.2f,\n", outage);
  std::fprintf(out, "  \"outage_goodput_ratio\": %.3f,\n",
               baseline > 0.0 ? outage / baseline : 0.0);
  std::fprintf(out, "  \"detection_seconds\": %.1f,\n", detection_s);
  std::fprintf(out, "  \"recovery_seconds\": %.1f,\n", recovery_s);
  print_latency(out, "latency", latency_all, ",");
  print_latency(out, "latency_healthy", latency_healthy, ",");
  print_latency(out, "latency_outage", latency_outage, ",");
  std::fprintf(out, "  \"buckets\": [\n");
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    std::fprintf(out,
                 "    {\"t\": %.0f, \"wips\": %.2f, \"p95_ms\": %.2f, "
                 "\"victim_up\": %s}%s\n",
                 buckets[i].start_s, buckets[i].wips, buckets[i].p95_ms,
                 buckets[i].victim_marked_up ? "true" : "false",
                 i + 1 < buckets.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_fault_recovery.json\n");

  if (!metrics_path.empty() && !system.metrics().write_json(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  if (!trace_path.empty() && !trace.write_csv(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }

  // Smoke sanity: the scenario must actually have degraded and recovered.
  if (detection_s < 0.0) {
    std::fprintf(stderr, "FAIL: victim never marked down\n");
    return 1;
  }
  if (recovery_s < 0.0) {
    std::fprintf(stderr, "FAIL: goodput never recovered to 90%% baseline\n");
    return 1;
  }
  return 0;
}
