// SystemModel's unified metrics registry: coverage of the registered
// sources, per-iteration latency percentiles, span tracing through the full
// stack, and byte-identical snapshots across thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "harmony/parameter.hpp"
#include "obs/trace.hpp"
#include "webstack/params.hpp"

namespace ah::core {
namespace {

Experiment::Config small_experiment() {
  Experiment::Config config;
  config.browsers = 60;
  config.iteration.warmup = common::SimTime::seconds(4.0);
  config.iteration.measure = common::SimTime::seconds(10.0);
  config.iteration.cooldown = common::SimTime::seconds(1.0);
  config.seed = 7;
  return config;
}

TEST(MetricsRegistryTest, SystemModelRegistersAllSourceFamilies) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  obs::Registry& metrics = system.metrics();
  EXPECT_GT(metrics.counter_count(), 10u);
  EXPECT_GT(metrics.gauge_count(), 0u);
  // One line: frontend + app hop + db hop histograms.
  EXPECT_EQ(metrics.histogram_count(), 3u);
  const std::string json = metrics.json_string();
  for (const char* name :
       {"network.messages_sent", "scheduler.events_executed",
        "routers.timeouts", "proxy.served", "app.served", "db.queries",
        "pools.db_connections.in_use", "monitor.samples_taken",
        "faults.disturbances", "line0.frontend_latency"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(MetricsRegistryTest, CountersAdvanceWithTraffic) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, small_experiment());
  EXPECT_EQ(system.metrics().counter_value("proxy.served"), 0u);
  const IterationResult result = experiment.run_iteration();
  EXPECT_GT(result.wips, 0.0);
  obs::Registry& metrics = system.metrics();
  EXPECT_GT(metrics.counter_value("proxy.served"), 0u);
  EXPECT_GT(metrics.counter_value("network.messages_sent"), 0u);
  EXPECT_GT(metrics.counter_value("scheduler.events_executed"), 0u);
  EXPECT_GT(metrics.counter_value("monitor.samples_taken"), 0u);
  // Hop histograms fill passively (no opt-in needed).
  EXPECT_GT(system.frontend_latency(0).count(), 0u);
  EXPECT_GT(system.app_hop_latency(0).count(), 0u);
  EXPECT_GT(system.db_hop_latency(0).count(), 0u);
}

TEST(MetricsRegistryTest, IterationPercentilesAreOrdered) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, small_experiment());
  const IterationResult result = experiment.run_iteration();
  EXPECT_GT(result.p50_ms, 0.0);
  EXPECT_LE(result.p50_ms, result.p95_ms);
  EXPECT_LE(result.p95_ms, result.p99_ms);
  EXPECT_LE(result.p99_ms, result.max_ms);
  // The mean of the same distribution must sit within its extremes.
  EXPECT_LE(result.p50_ms, result.max_ms);
  EXPECT_GT(result.mean_latency_ms, 0.0);
}

TEST(MetricsRegistryTest, TraceRecorderSeesAllThreeHops) {
  sim::Simulator sim;
  SystemModel system(sim, {});
  Experiment experiment(system, small_experiment());
  obs::TraceRecorder trace(/*every_nth=*/1, /*capacity=*/1 << 14);
  system.set_trace_recorder(&trace);
  experiment.run_iteration();
  EXPECT_GT(trace.recorded(), 0u);
  bool saw[3] = {false, false, false};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::Span& span = trace.span(i);
    saw[static_cast<std::size_t>(span.hop)] = true;
    EXPECT_LE(span.enqueue.as_micros(), span.start.as_micros());
    EXPECT_LE(span.start.as_micros(), span.complete.as_micros());
    EXPECT_NE(span.node[0], '\0');
  }
  EXPECT_TRUE(saw[0]);  // proxy
  EXPECT_TRUE(saw[1]);  // app
  EXPECT_TRUE(saw[2]);  // db
  // Detaching stops recording.
  system.set_trace_recorder(nullptr);
  const std::uint64_t frozen = trace.recorded();
  experiment.run_iteration();
  EXPECT_EQ(trace.recorded(), frozen);
}

// Deterministic in-bounds candidate: nudge one dimension of the defaults.
harmony::PointI nudged_candidate(std::size_t i) {
  const auto& catalogue = webstack::parameter_catalogue();
  harmony::PointI point = webstack::default_values();
  const std::size_t d = i % point.size();
  const auto& spec = catalogue[d];
  point[d] = spec.min_value + (spec.max_value - spec.min_value) / 2;
  return point;
}

// A two-line model advanced by a `threads`-wide pool; candidate i goes to
// line i % 2 before window i.
std::string metrics_on_two_lines(std::size_t threads) {
  common::ThreadPool pool(threads);
  SystemModel::Config topology;
  topology.lines = {SystemModel::LineSpec{}, SystemModel::LineSpec{}};
  SystemModel system(topology);
  system.set_thread_pool(&pool);
  Experiment::Config config = small_experiment();
  config.browsers = 120;  // 60 per line
  Experiment experiment(system, config);
  for (std::size_t i = 0; i < 4; ++i) {
    system.apply_values_line(i % 2, nudged_candidate(i));
    experiment.run_iteration();
  }
  system.set_thread_pool(nullptr);
  return system.metrics().json_string();
}

TEST(MetricsRegistryTest, SnapshotsByteIdenticalAcrossThreadCounts) {
  // The registry's determinism claim: metrics.json depends only on the
  // simulated history, never on how many pool threads advanced it.
  const std::string one = metrics_on_two_lines(1);
  const std::string two = metrics_on_two_lines(2);
  const std::string eight = metrics_on_two_lines(8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

}  // namespace
}  // namespace ah::core
