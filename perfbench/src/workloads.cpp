#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/model_immutable.hpp"
#include "core/reconfig_controller.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "harmony/server.hpp"
#include "heap.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "tpcw/metrics.hpp"
#include "tpcw/mix.hpp"
#include "tpcw/workload.hpp"
#include "webstack/params.hpp"

namespace perfbench {
namespace {

using namespace ah;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Upper bound (exclusive) of the obs::Histogram bucket whose lower bound is
/// `low_us` — the simulated percentiles are bucket lower bounds.
std::uint64_t bucket_high_us(std::uint64_t low_us) {
  if (low_us < static_cast<std::uint64_t>(obs::Histogram::kSubBuckets)) {
    return low_us + 1;
  }
  return obs::Histogram::bucket_low_us(obs::Histogram::bucket_index(low_us) +
                                       1);
}

double bucket_high_ms(double low_ms) {
  return static_cast<double>(
             bucket_high_us(static_cast<std::uint64_t>(std::llround(low_ms * 1e3)))) /
         1e3;
}

/// Collects failed correctness checks; the first few are kept verbatim.
class Failures {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++count_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Per-window observation shared by every workload.
// ---------------------------------------------------------------------------

struct Window {
  double host_ms = 0.0;
  double wips = 0.0;
  std::uint64_t requests = 0;  // frontend round trips finished (any outcome)
  std::uint64_t ok = 0;        // meter: in-window successful completions
  std::uint64_t errors = 0;    // meter: in-window failed interactions
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;    // operator-new calls inside the simulate span
  double p95_ms = 0.0;         // bucket lower bound
  double p99_ms = 0.0;         // bucket lower bound
  double stored_per_live = 1.0;
  double bottleneck = 0.0;     // highest smoothed cpu/disk/nic utilization
};

/// Counter readings taken before a window; finish() turns them into the
/// window's request, event and scheduler figures.  Both workloads run one
/// line on one timeline.
class WindowProbe {
 public:
  explicit WindowProbe(core::SystemModel& system)
      : system_(system),
        frontend_(system.frontend_latency(0).count()),
        events_(system.line_simulator(0).events_executed()) {}

  void finish(Window& w) {
    w.requests += system_.frontend_latency(0).count() - frontend_;
    const sim::Simulator& sim = system_.line_simulator(0);
    w.events += sim.events_executed() - events_;
    w.stored_per_live = ratio(static_cast<double>(sim.stored_events()),
                              static_cast<double>(sim.pending_events()));
    double bottleneck = 0.0;
    for (const harmony::NodeReading& reading : system_.readings()) {
      for (const std::size_t r : {core::SystemModel::kCpu,
                                  core::SystemModel::kDisk,
                                  core::SystemModel::kNic}) {
        bottleneck = std::max(bottleneck, reading.utilization[r]);
      }
    }
    w.bottleneck = bottleneck;
  }

 private:
  core::SystemModel& system_;
  std::uint64_t frontend_;
  std::uint64_t events_;
};


/// Sequence-sampled per-hop spans, drained once per window.
class HopTrace {
 public:
  static constexpr std::uint64_t kEveryNth = 8;

  void drain() {
    if (recorder_.recorded() > recorder_.capacity()) overflowed_ = true;
    for (std::size_t i = 0; i < recorder_.size(); ++i) {
      const obs::Span& span = recorder_.span(i);
      const auto hop = static_cast<std::size_t>(span.hop);
      wait_us_[hop] += static_cast<double>((span.start - span.enqueue).as_micros());
      service_us_[hop] +=
          static_cast<double>((span.complete - span.start).as_micros());
      ++count_[hop];
    }
    recorder_.reset();
  }

  [[nodiscard]] obs::TraceRecorder* recorder() { return &recorder_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] double mean_wait_ms(obs::Hop hop) const {
    const auto h = static_cast<std::size_t>(hop);
    return ratio(wait_us_[h], static_cast<double>(count_[h])) / 1e3;
  }
  [[nodiscard]] double mean_service_ms(obs::Hop hop) const {
    const auto h = static_cast<std::size_t>(hop);
    return ratio(service_us_[h], static_cast<double>(count_[h])) / 1e3;
  }

 private:
  obs::TraceRecorder recorder_{kEveryNth, std::size_t{1} << 16};
  std::array<double, 3> wait_us_{};
  std::array<double, 3> service_us_{};
  std::array<std::uint64_t, 3> count_{};
  bool overflowed_ = false;
};

/// Registry counters read at study start and end; per-layer figures use
/// the differences.
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "network.messages_sent", "network.bytes_sent",
      "network.messages_dropped", "health.mark_downs", "health.downtime_us",
      "proxy.served", "proxy.mem_hits", "proxy.disk_hits",
      "proxy.stale_served", "proxy.shed", "proxy.shed_stale", "app.served",
      "app.rejected_http", "app.rejected_ajp", "db.queries",
      "db.binlog_flushes", "db.table_cache_misses", "routers.timeouts",
      "ctrl.adjustments", "ctrl.ticks"};
  return names;
}

using Counters = std::map<std::string, double>;

Counters read_counters(core::SystemModel& system) {
  Counters out;
  for (const std::string& name : counter_names()) {
    out[name] = static_cast<double>(system.metrics().counter_value(name));
  }
  return out;
}

Counters counter_delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) out[name] = value - before.at(name);
  return out;
}

struct SetupTimes {
  double total_ms = 0.0;
  double immutable_ms = 0.0;
  double model_ms = 0.0;
  double experiment_ms = 0.0;
  double heap_per_node_kb = 0.0;
};

/// Everything one study leaves behind for the metric tables.
struct Study {
  std::vector<double> wips_series;  // one per tuning iteration or window
  std::vector<Window> windows;      // every timed window
  double sim_wips = 0.0;
  /// The window p95s sim_p95_ms averages: every measured window of a tuning
  /// study, the flash windows of a flash-overload pass.  Not the validation
  /// windows alone: their p95 is bimodal (about 60 ms when the validated
  /// candidate keeps the line below saturation, 0.25-1 s and more at it),
  /// so its mean over a run spread by 0.65 across seeds.
  std::vector<double> p95_ms;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  // Tuning only.
  std::optional<std::size_t> converged_at;
  std::uint64_t discarded = 0;
  std::size_t evaluations = 0;
  double default_wips = 0.0;
  // Flash only.
  double admit_min = 1.0;
  std::size_t seed_index = 0;  // k of study_seed(seed, k)
  // Filled by the caller for the traced study.
  Counters counters;
  double snapshot_ms = 0.0;
};

double hop_p95_ms(core::SystemModel& system, bool app) {
  const obs::Histogram& hop =
      app ? system.app_hop_latency(0) : system.db_hop_latency(0);
  return static_cast<double>(hop.p95_us()) / 1e3;
}

// ---------------------------------------------------------------------------
// Tuning workloads: a Harmony study on a SystemModel + Experiment.
// ---------------------------------------------------------------------------

/// browse-tune: one line of 1 proxy, 1 app and 1 db node under the
/// Browsing mix, tuned by the sequential kDuplication protocol (threads=1).
struct TuneSpec {
  core::SystemModel::LineSpec shape{1, 1, 1};
  tpcw::WorkloadKind mix = tpcw::WorkloadKind::kBrowsing;
  int browsers = 530;
  core::IterationSpec iteration{};
  // Short studies, many seeds: the initial simplex (24 fixed candidate
  // configurations) plus a few adaptive steps.  The host cost of a window
  // depends on the candidate, and long studies wander to seed-specific
  // candidates; many short ones keep a run's figures steady.
  std::size_t iterations = 30;
  std::size_t validation = 2;
  /// Paper Fig 4 tuning gain for the Browsing mix.
  double paper_gain_pct = 15.0;
  /// Host seconds one study takes (sizes the study count per run).
  double study_host_s = 1.0;
};

/// Length of the short study that check (a) runs through TuningDriver.
constexpr std::size_t kPrefixIterations = 4;
constexpr std::size_t kPrefixValidation = 1;

/// One built system.  Members are destroyed bottom-up: the experiment before
/// the model, the model before the timeline it borrows.
struct TuneInstance {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SystemModel> system;
  std::unique_ptr<core::Experiment> experiment;
};

TuneInstance setup_tune(const TuneSpec& spec, std::uint64_t seed, SpanLog* log,
                        SetupTimes& times) {
  TuneInstance inst;
  const auto t0 = Clock::now();
  core::SystemModel::Config topology;
  topology.lines = {spec.shape};
  topology.seed = common::mix_seed(seed, 1);
  core::Experiment::Config experiment;
  experiment.iteration = spec.iteration;
  experiment.browsers = spec.browsers;
  experiment.workload = spec.mix;
  experiment.seed = common::mix_seed(seed, 2);
  const std::int64_t heap_before = heap::live_bytes();
  {
    Scope span(log, "core.setup.immutable");
    topology.shared = core::make_model_immutable(topology, experiment);
  }
  const auto t1 = Clock::now();
  {
    Scope span(log, "core.setup.model");
    inst.sim = std::make_unique<sim::Simulator>();
    inst.system = std::make_unique<core::SystemModel>(*inst.sim, topology);
  }
  const auto t2 = Clock::now();
  {
    Scope span(log, "core.setup.experiment");
    inst.experiment =
        std::make_unique<core::Experiment>(*inst.system, experiment);
  }
  const auto t3 = Clock::now();
  times.heap_per_node_kb =
      static_cast<double>(heap::live_bytes() - heap_before) / 1024.0 /
      static_cast<double>(inst.system->all_nodes().size());
  {
    // Starts the browsers and fills the caches: the untimed warm-up window.
    Scope span(log, "sim.warmup");
    (void)inst.experiment->run_iteration();
  }
  const auto t4 = Clock::now();
  times.immutable_ms = ms_between(t0, t1);
  times.model_ms = ms_between(t1, t2);
  times.experiment_ms = ms_between(t2, t3);
  times.total_ms = ms_between(t0, t4);
  return inst;
}

/// Check (b) on a tuning window.  Experiment::run_iteration runs warm-up,
/// measure and cool-down in one call, so the probe counts the frontend's
/// round trips over the whole iteration while the meter counts outcomes in
/// the measure part only.  Under the closed loop the round-trip rate is
/// nearly even across an iteration, so the outcomes may exceed the measure
/// part's share of the round trips by at most kMeasureShareSlack (the
/// largest excess seen over 1658 windows of two seeds was 0.046).
constexpr double kMeasureShareSlack = 0.10;

/// One measured window of a tuning study: Experiment::run_iteration plus
/// the window's observations and checks.
core::IterationResult measure(TuneInstance& inst, const TuneSpec& spec,
                              Window& w, SpanLog* log, Failures& failures) {
  const std::uint64_t requests_before = w.requests;
  WindowProbe probe(*inst.system);
  const std::uint64_t allocs_before = heap::allocations();
  core::IterationResult result;
  {
    Scope span(log, "sim.simulate");
    result = inst.experiment->run_iteration();
  }
  w.allocs += heap::allocations() - allocs_before;
  Scope span(log, "obs.window_stats");
  probe.finish(w);
  const tpcw::WipsMeter& meter = inst.experiment->meter(0);  // the one line
  const std::uint64_t ok = meter.completed_ok();
  const std::uint64_t errors = meter.errors();
  const double share =
      spec.iteration.measure.as_seconds() / spec.iteration.total().as_seconds();
  const double round_trips = static_cast<double>(w.requests - requests_before);
  failures.check(static_cast<double>(ok + errors) <=
                     (1.0 + kMeasureShareSlack) * share * round_trips,
                 "meter counted more outcomes than the measure part's share "
                 "of the frontend round trips");
  w.ok += ok;
  w.errors += errors;
  w.wips = result.wips;
  w.p95_ms = result.p95_ms;
  w.p99_ms = result.p99_ms;
  return result;
}

/// The session TuningDriver builds for kDuplication.
harmony::SessionId build_session(harmony::HarmonyServer& server) {
  const auto id =
      server.create_session("duplication", harmony::SessionOptions{});
  for (const webstack::ParamSpec& p : webstack::parameter_catalogue()) {
    server.register_parameter(
        id, harmony::TunableParameter{p.name, p.min_value, p.max_value,
                                      p.default_value});
  }
  server.start(id);
  return id;
}

/// The sequential TuningDriver protocol (explore, then validate the top
/// candidates), replayed call by call so each window can be timed and
/// spanned.  Its WIPS series must equal TuningDriver::run's.
Study replay(TuneInstance& inst, const TuneSpec& spec, std::size_t iterations,
             std::size_t validation, SpanLog* log, HopTrace* trace,
             Failures& failures) {
  Study study;
  study.windows.reserve(iterations + 3 * (validation + 1));
  harmony::HarmonyServer server;
  const harmony::SessionId session = build_session(server);
  core::SystemModel& system = *inst.system;
  const harmony::PointI defaults = webstack::default_values();

  auto finish_window = [&](const Window& w) {
    if (trace != nullptr) {
      Scope span(log, "obs.trace_drain");
      trace->drain();
    }
    study.ok += w.ok;
    study.errors += w.errors;
  };

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const auto start = Clock::now();
    Window w;
    {
      Scope window(log, "core.window");
      harmony::PointI candidate;
      {
        Scope span(log, "harmony.get_configuration");
        candidate = server.get_configuration(session);
      }
      const bool at_defaults = iter == 0 && candidate == defaults;
      {
        Scope span(log, "core.apply");
        core::apply_method_values(system, core::TuningMethod::kDuplication,
                                  candidate);
      }
      core::IterationResult measured = measure(inst, spec, w, log, failures);
      if (measured.disturbed) {
        ++study.discarded;
        measured = measure(inst, spec, w, log, failures);
      }
      study.wips_series.push_back(measured.wips);
      study.p95_ms.push_back(measured.p95_ms);
      if (at_defaults) study.default_wips = measured.wips;
      {
        Scope span(log, "harmony.report_performance");
        server.report_performance(session, measured.wips);
      }
      finish_window(w);
    }
    w.host_ms = ms_between(start, Clock::now());
    study.windows.push_back(w);
  }

  // Validation pass (TuningDriver::finalize): re-measure the best
  // candidates back-to-back; the first window after each switch settles.
  std::vector<harmony::PointI> candidates;
  {
    Scope span(log, "harmony.rank_candidates");
    study.converged_at = server.converged_at(session);
    study.evaluations = server.evaluations(session);
    const auto& history = server.session(session).history();
    std::vector<std::pair<double, const harmony::PointI*>> ranked;
    ranked.reserve(history.size());
    for (const auto& entry : history) {
      ranked.emplace_back(entry.cost, &entry.configuration);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [cost, config] : ranked) {
      if (candidates.size() >= 3) break;
      if (std::find(candidates.begin(), candidates.end(), *config) ==
          candidates.end()) {
        candidates.push_back(*config);
      }
    }
  }
  double best_validated = -1.0;
  for (const harmony::PointI& candidate : candidates) {
    double validated = 0.0;
    for (std::size_t i = 0; i <= validation; ++i) {
      const auto start = Clock::now();
      Window w;
      {
        Scope window(log, "core.window");
        if (i == 0) {
          Scope span(log, "core.apply");
          core::apply_method_values(system, core::TuningMethod::kDuplication,
                                    candidate);
        }
        const core::IterationResult measured =
            measure(inst, spec, w, log, failures);
        study.p95_ms.push_back(measured.p95_ms);
        if (i > 0) validated += measured.wips;
        finish_window(w);
      }
      w.host_ms = ms_between(start, Clock::now());
      study.windows.push_back(w);
    }
    validated /= static_cast<double>(validation);
    best_validated = std::max(best_validated, validated);
  }
  study.sim_wips = best_validated;
  return study;
}

// ---------------------------------------------------------------------------
// flash-overload: a scripted flash crowd + rack outage, no Harmony session.
// ---------------------------------------------------------------------------

struct FlashSpec {
  int browsers = 900;
  double window_s = 10.0;
  double warmup_s = 20.0;
  double cycle_s = 360.0;
  int cycles = 3;
  double flash_peak = 3.0;
  double flash_t0 = 120.0;
  double flash_t1 = 300.0;
  double rack_t0 = 160.0;
  double rack_t1 = 240.0;
  std::int64_t p95_target_ms = 1500;
  /// Host seconds one pass takes (sizes the pass count per run).
  double pass_host_s = 1.0;
};

/// Members are destroyed bottom-up: browsers first, the timeline last.
struct FlashInstance {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SystemModel> system;
  std::unique_ptr<core::ReconfigController> reconfig;
  std::unique_ptr<tpcw::WipsMeter> meter;
  std::unique_ptr<tpcw::Workload> workload;
  std::uint64_t outcomes = 0;  // meter outcomes over every window so far
};

std::string flash_scenario(const FlashSpec& spec, core::SystemModel& system,
                           std::uint64_t seed) {
  // The rack holds one app and one db node, picked by the seed.
  const auto& apps = system.cluster().tier(cluster::TierKind::kApp).members();
  const auto& dbs = system.cluster().tier(cluster::TierKind::kDb).members();
  const cluster::NodeId app = apps[seed % apps.size()];
  const cluster::NodeId db = dbs[(seed / 2) % dbs.size()];
  std::string text;
  char entry[160];
  for (int c = 0; c < spec.cycles; ++c) {
    const double off = spec.cycle_s * c;
    std::snprintf(entry, sizeof(entry),
                  "%sflash:%.1f@%.0f-%.0f; rack:%u+%u@%.0f-%.0f",
                  c == 0 ? "" : "; ", spec.flash_peak, off + spec.flash_t0,
                  off + spec.flash_t1, app, db, off + spec.rack_t0,
                  off + spec.rack_t1);
    text += entry;
  }
  return text;
}

FlashInstance setup_flash(const FlashSpec& spec, std::uint64_t seed,
                          SpanLog* log, SetupTimes& times) {
  FlashInstance inst;
  const auto t0 = Clock::now();
  core::SystemModel::Config topology;
  topology.lines = {core::SystemModel::LineSpec{2, 2, 2}};
  topology.seed = common::mix_seed(seed, 1);
  core::Experiment::Config experiment;
  experiment.browsers = spec.browsers;
  experiment.workload = tpcw::WorkloadKind::kShopping;
  experiment.seed = common::mix_seed(seed, 2);
  const std::int64_t heap_before = heap::live_bytes();
  {
    Scope span(log, "core.setup.immutable");
    topology.shared = core::make_model_immutable(topology, experiment);
  }
  const auto t1 = Clock::now();
  {
    Scope span(log, "core.setup.model");
    inst.sim = std::make_unique<sim::Simulator>();
    inst.system = std::make_unique<core::SystemModel>(*inst.sim, topology);
    core::SystemModel& system = *inst.system;
    system.enable_fault_tolerance({});
    core::SystemModel::OverloadControlConfig control;
    control.admission.target_p95 = common::SimTime::millis(spec.p95_target_ms);
    control.shed_mode = webstack::ProxyServer::ShedMode::kServeStale;
    system.enable_admission_control(control);
    inst.reconfig = std::make_unique<core::ReconfigController>(system);
    core::ReconfigController::ReactiveOptions reactive;
    reactive.p95_target = common::SimTime::millis(spec.p95_target_ms);
    inst.reconfig->enable_reactive(reactive);
    const std::string text = flash_scenario(spec, system, seed);
    std::string error;
    const auto plan = sim::ScenarioPlan::parse(text, &error);
    if (!plan.has_value()) {
      throw std::runtime_error("bad scenario '" + text + "': " + error);
    }
    system.install_scenario(*plan);
  }
  const auto t2 = Clock::now();
  {
    Scope span(log, "tpcw.setup.workload");
    inst.meter = std::make_unique<tpcw::WipsMeter>();
    tpcw::Workload::Config config;
    config.browsers = spec.browsers;
    config.item_count = experiment.item_count;
    config.seed = experiment.seed;
    config.retry.max_retries = 0;  // a failed interaction is final
    config.shared_popularity = inst.system->shared_popularity();
    inst.workload = std::make_unique<tpcw::Workload>(
        *inst.sim, inst.system->frontend(0),
        &tpcw::Mix::standard(experiment.workload), *inst.meter, config);
    inst.workload->set_arrival_modulation(&inst.system->scenario()->arrival);
    inst.workload->apply_mix_schedule(inst.system->scenario()->mix_changes);
  }
  const auto t3 = Clock::now();
  times.heap_per_node_kb =
      static_cast<double>(heap::live_bytes() - heap_before) / 1024.0 /
      static_cast<double>(inst.system->all_nodes().size());
  {
    Scope span(log, "sim.warmup");
    inst.workload->start();
    inst.meter->arm(common::SimTime::zero(),
                    common::SimTime::seconds(spec.warmup_s));
    inst.sim->run_until(common::SimTime::seconds(spec.warmup_s));
    inst.outcomes = inst.meter->completed_ok() + inst.meter->errors();
  }
  const auto t4 = Clock::now();
  times.immutable_ms = ms_between(t0, t1);
  times.model_ms = ms_between(t1, t2);
  times.experiment_ms = ms_between(t2, t3);
  times.total_ms = ms_between(t0, t4);
  return inst;
}

Study run_flash(FlashInstance& inst, const FlashSpec& spec, SpanLog* log,
                HopTrace* trace, Failures& failures) {
  Study study;
  const double end_s = spec.cycle_s * spec.cycles;
  study.windows.reserve(
      static_cast<std::size_t>((end_s - spec.warmup_s) / spec.window_s) + 1);
  core::SystemModel& system = *inst.system;
  tpcw::WipsMeter& meter = *inst.meter;
  std::vector<double> flash_wips;
  for (double t = spec.warmup_s; t + spec.window_s <= end_s + 1e-9;
       t += spec.window_s) {
    const auto start = Clock::now();
    Window w;
    {
      Scope window(log, "core.window");
      meter.arm(common::SimTime::seconds(t),
                common::SimTime::seconds(t + spec.window_s));
      WindowProbe probe(system);
      const std::uint64_t allocs_before = heap::allocations();
      {
        Scope span(log, "sim.simulate");
        inst.sim->run_until(common::SimTime::seconds(t + spec.window_s));
      }
      w.allocs += heap::allocations() - allocs_before;
      std::uint64_t p95_us = 0;
      {
        Scope span(log, "obs.window_stats");
        probe.finish(w);
        w.ok = meter.completed_ok();
        w.errors = meter.errors();
        w.wips = meter.wips();
        p95_us = meter.latency_histogram().p95_us();
        w.p95_ms = static_cast<double>(p95_us) / 1e3;
        w.p99_ms = static_cast<double>(meter.latency_histogram().p99_us()) / 1e3;
        // The probe spans exactly the meter's window and every round trip
        // ends in one meter outcome, so the two counts agree, except for a
        // round trip finishing on a window edge (at most one per edge).
        const std::uint64_t outcomes = w.ok + w.errors;
        failures.check(outcomes <= w.requests + 2 && w.requests <= outcomes + 2,
                       "meter outcomes differ from the frontend's round "
                       "trips in the window");
        // Retries are off, so every outcome belongs to a distinct issued
        // interaction: outcomes over all windows never exceed those issued.
        inst.outcomes += w.ok + w.errors;
        failures.check(inst.outcomes <= inst.workload->interactions_issued(),
                       "completed + errored interactions exceed those issued");
      }
      {
        Scope span(log, "ctrl.admission");
        study.admit_min = std::min(
            study.admit_min, system.line_admission(0)->admit_fraction());
      }
      {
        Scope span(log, "core.reactive");
        (void)inst.reconfig->observe_p95(
            common::SimTime::micros(static_cast<std::int64_t>(p95_us)));
      }
      const double in_cycle = std::fmod(t, spec.cycle_s);
      if (in_cycle >= spec.flash_t0 &&
          in_cycle + spec.window_s <= spec.flash_t1 + 1e-9) {
        flash_wips.push_back(w.wips);
        study.p95_ms.push_back(w.p95_ms);
      }
      if (trace != nullptr) {
        Scope span(log, "obs.trace_drain");
        trace->drain();
      }
      study.ok += w.ok;
      study.errors += w.errors;
      study.wips_series.push_back(w.wips);
    }
    w.host_ms = ms_between(start, Clock::now());
    study.windows.push_back(w);
  }
  study.sim_wips = mean(flash_wips);
  return study;
}

// ---------------------------------------------------------------------------
// Workload table and run entry points.
// ---------------------------------------------------------------------------

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Accumulates the untraced studies of a run.  Host figures take every
/// study; simulated figures come from the first `sim_studies` only, a fixed
/// count, so they repeat exactly however many studies the host fits in.
struct Accumulator {
  Accumulator() {
    // Pre-sized so the number of studies a host fits in does not move
    // peak_heap_mb.
    setup_ms.reserve(1024);
    study_p50_ms.reserve(1024);
    study_req_per_s.reserve(1024);
    window_ms.reserve(std::size_t{1} << 15);
  }

  void add(const SetupTimes& t, Study study, bool for_sim) {
    ++studies;
    setup_ms.push_back(t.total_ms);
    std::vector<double> study_ms;
    study_ms.reserve(study.windows.size());
    for (const Window& w : study.windows) study_ms.push_back(w.host_ms);
    study_p50_ms.push_back(median(study_ms));
    double requests = 0.0;
    double host_s = 0.0;
    for (const Window& w : study.windows) {
      window_ms.push_back(w.host_ms);
      requests += static_cast<double>(w.requests);
      host_s += w.host_ms / 1e3;
      ++windows;
    }
    study_req_per_s.push_back(ratio(requests, host_s));
    if (for_sim) {
      ++sim_studies;
      sim_wips.push_back(study.sim_wips);
      p95_ms.insert(p95_ms.end(), study.p95_ms.begin(), study.p95_ms.end());
      ok += static_cast<double>(study.ok);
      errors += static_cast<double>(study.errors);
    }
    if (study.seed_index == 0) first_seed.push_back(std::move(study));
  }

  std::size_t studies = 0;
  std::vector<double> setup_ms;
  std::vector<double> window_ms;
  std::vector<double> study_p50_ms;     // median window time of each study
  std::vector<double> study_req_per_s;  // round trips per host s of each
  std::uint64_t windows = 0;
  std::size_t sim_studies = 0;
  std::vector<double> sim_wips;
  std::vector<double> p95_ms;
  double ok = 0.0;
  double errors = 0.0;
  /// Untraced studies of the first seed, kept for byte comparisons.
  std::vector<Study> first_seed;
};

Metric metric(std::string name, double value, std::string unit,
              std::string clock, std::string note = "") {
  return Metric{std::move(name), value, std::move(unit), std::move(clock),
                std::move(note)};
}

void end_to_end_metrics(RunReport& report, const Accumulator& acc,
                        bool flash) {
  // The host figures read the fastest tenth of the run's set-ups and
  // studies.  A shared host can run the same work up to 60 % slower for
  // stretches of a few seconds; a study takes about one, so the fast decile
  // reads the host's uncontended speed, while a mean or median follows how
  // much of the run the slow stretches covered.  Across eight 20 s
  // flash-overload runs, the spread of iter_ms_p50 fell from 0.12 (mean of
  // the per-study medians) to 0.06.
  char note[200];
  std::snprintf(note, sizeof(note), "fastest decile (p10) of %zu set-ups",
                acc.setup_ms.size());
  report.end_to_end.push_back(metric(
      "setup_s", nearest_rank(acc.setup_ms, 0.10) / 1e3, "s", "host", note));
  const std::size_t n = acc.window_ms.size();
  const double p90 = nearest_rank(acc.window_ms, 0.90);
  std::size_t beyond = 0;
  for (const double v : acc.window_ms) beyond += v > p90 ? 1 : 0;
  std::snprintf(note, sizeof(note),
                "p10 over %zu studies of their median window (%zu windows)",
                acc.study_p50_ms.size(), n);
  report.end_to_end.push_back(metric(
      "iter_ms_p50", nearest_rank(acc.study_p50_ms, 0.10), "ms", "host", note));
  // The tail of the pooled windows is what a shared host's slow stretches
  // move most (spread 0.27 across ten seeds), so it is printed but left
  // out of the JSON.
  std::snprintf(note, sizeof(note),
                "%zu windows, %zu beyond p90; not in the JSON", n, beyond);
  report.printed_only.push_back(
      metric("iter_ms_p90", p90, "ms", "host", note));
  std::snprintf(note, sizeof(note),
                "p90 over %zu studies of client round trips / host s",
                acc.study_req_per_s.size());
  report.end_to_end.push_back(metric("req_per_s",
                                     nearest_rank(acc.study_req_per_s, 0.90),
                                     "1/s", "host", note));
  report.end_to_end.push_back(
      metric("peak_heap_mb",
             static_cast<double>(heap::peak_bytes() - heap::baseline_bytes()) /
                 (1024.0 * 1024.0),
             "MiB", "host", "operator-new live-heap peak above the run start"));

  std::vector<double> p95_high;
  for (const double v : acc.p95_ms) p95_high.push_back(bucket_high_ms(v));
  std::snprintf(note, sizeof(note), "mean over %zu studies of %s",
                acc.sim_studies,
                flash ? "goodput in flash windows" : "validated best WIPS");
  report.end_to_end.push_back(
      metric("sim_wips", mean(acc.sim_wips), "WIPS", "sim", note));
  std::snprintf(note, sizeof(note),
                "mean of %zu %s-window p95s, obs::Histogram bucket lower "
                "bounds (upper bounds %.3f ms)",
                acc.p95_ms.size(), flash ? "flash" : "measured",
                mean(p95_high));
  report.end_to_end.push_back(
      metric("sim_p95_ms", mean(acc.p95_ms), "ms", "sim", note));
  const double ok = acc.ok;
  const double errors = acc.errors;
  report.end_to_end.push_back(metric("ok_share", ratio(ok, ok + errors),
                                     "ratio", "sim",
                                     "successful / attempted interactions"));
  // Can be 0 and spreads widely across seeds, so the JSON carries
  // ok_share = 1 - fail_share instead.
  report.printed_only.push_back(
      metric("fail_share", ratio(errors, ok + errors), "ratio", "sim",
             "failed / attempted interactions; not in the JSON"));
}

void per_layer_metrics(RunReport& report, const Study& traced,
                       const SpanLog& log, const SetupTimes& setup,
                       const HopTrace& hops, core::SystemModel& system,
                       double trace_overhead_pct, double paper_gain_pct,
                       bool tuning) {
  auto add = [&](std::string name, double value, std::string unit,
                 std::string clock, std::string note = "") {
    report.per_layer.push_back(metric(std::move(name), value, std::move(unit),
                                      std::move(clock), std::move(note)));
  };
  const auto spans = log.by_name();
  auto span_total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  auto span_self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ms;
  };

  double events = 0.0;
  double requests = 0.0;
  double allocs = 0.0;
  std::vector<double> stored_per_live;
  std::vector<double> bottleneck;
  std::vector<double> p99;
  for (const Window& w : traced.windows) {
    events += static_cast<double>(w.events);
    requests += static_cast<double>(w.requests);
    allocs += static_cast<double>(w.allocs);
    stored_per_live.push_back(w.stored_per_live);
    bottleneck.push_back(w.bottleneck);
    p99.push_back(w.p99_ms);
  }
  const Counters& c = traced.counters;

  add("sim.events", events, "count", "sim", "timed windows");
  add("sim.events_per_req", ratio(events, requests), "count", "sim");
  add("sim.ns_per_event", ratio(span_self("sim.simulate") * 1e6, events), "ns",
      "host", "self time of sim.simulate / events");
  add("sim.stored_per_live", mean(stored_per_live), "ratio", "sim",
      "calendar-queue stored / live at window ends");

  add("cluster.net.msgs_per_req", ratio(c.at("network.messages_sent"), requests),
      "count", "sim");
  add("cluster.net.bytes_per_req", ratio(c.at("network.bytes_sent"), requests),
      "B", "sim");
  add("cluster.net.dropped", c.at("network.messages_dropped"), "count", "sim");
  add("cluster.health.mark_downs", c.at("health.mark_downs"), "count", "sim");
  add("cluster.health.downtime_s", c.at("health.downtime_us") / 1e6, "s",
      "sim");
  add("cluster.util.bottleneck", mean(bottleneck), "ratio", "sim",
      "mean over windows of the highest cpu/disk/nic EWMA");

  const double served = c.at("proxy.served");
  const double fast_shed = c.at("proxy.shed") - c.at("proxy.shed_stale");
  const double cache_served = c.at("proxy.mem_hits") + c.at("proxy.disk_hits") +
                              c.at("proxy.stale_served") +
                              c.at("proxy.shed_stale");
  add("webstack.proxy.mem_hit_ratio", ratio(c.at("proxy.mem_hits"), served),
      "ratio", "sim");
  add("webstack.proxy.disk_hit_ratio", ratio(c.at("proxy.disk_hits"), served),
      "ratio", "sim");
  add("webstack.proxy.forward_ratio", ratio(served - cache_served, served),
      "ratio", "sim", "served from upstream / served");
  add("webstack.proxy.shed_share", ratio(c.at("proxy.shed"), served + fast_shed),
      "ratio", "sim");
  add("webstack.proxy.stale_share",
      ratio(c.at("proxy.stale_served") + c.at("proxy.shed_stale"), served),
      "ratio", "sim");
  const double rejected = c.at("app.rejected_http") + c.at("app.rejected_ajp");
  add("webstack.app.reject_share", ratio(rejected, c.at("app.served") + rejected),
      "ratio", "sim");
  add("webstack.db.queries_per_req", ratio(c.at("db.queries"), requests),
      "count", "sim");
  add("webstack.db.binlog_flushes", c.at("db.binlog_flushes"), "count", "sim");
  add("webstack.db.table_cache_misses", c.at("db.table_cache_misses"), "count",
      "sim");
  add("webstack.routers.timeouts", c.at("routers.timeouts"), "count", "sim");
  for (const bool app : {true, false}) {
    const double p95 = hop_p95_ms(system, app);
    char note[120];
    std::snprintf(note, sizeof(note),
                  "whole study, bucket lower bound (upper bound %.3f ms)",
                  bucket_high_ms(p95));
    add(app ? "webstack.hop.app_p95_ms" : "webstack.hop.db_p95_ms", p95, "ms",
        "sim", note);
  }
  const std::array<std::pair<const char*, obs::Hop>, 3> hop_names = {
      {{"proxy", obs::Hop::kProxy}, {"app", obs::Hop::kApp},
       {"db", obs::Hop::kDb}}};
  for (const auto& [name, hop] : hop_names) {
    add(std::string("webstack.") + name + ".wait_ms", hops.mean_wait_ms(hop),
        "ms", "sim", "sampled spans, every 8th request");
    add(std::string("webstack.") + name + ".service_ms",
        hops.mean_service_ms(hop), "ms", "sim",
        "sampled spans, every 8th request");
  }

  add("tpcw.interactions", static_cast<double>(traced.ok + traced.errors),
      "count", "sim", "meter outcomes in measured windows");
  std::vector<double> p99_high;
  for (const double v : p99) p99_high.push_back(bucket_high_ms(v));
  char p99_note[120];
  std::snprintf(p99_note, sizeof(p99_note),
                "mean window p99, bucket lower bounds (upper bounds %.3f ms)",
                mean(p99_high));
  add("tpcw.p99_ms", mean(p99), "ms", "sim", p99_note);

  add("ctrl.admit_min", traced.admit_min, "ratio", "sim");
  add("ctrl.adjustments", c.at("ctrl.adjustments"), "count", "sim");
  add("ctrl.ticks", c.at("ctrl.ticks"), "count", "sim");

  add("harmony.host_ms",
      span_total("harmony.get_configuration") +
          span_total("harmony.report_performance") +
          span_total("harmony.rank_candidates"),
      "ms", "host");
  add("harmony.evaluations", static_cast<double>(traced.evaluations), "count",
      "sim");
  add("harmony.converged_at",
      traced.converged_at.has_value() ? static_cast<double>(*traced.converged_at)
                                      : -1.0,
      "count", "sim", "-1: not converged");
  const double gain =
      traced.default_wips > 0.0
          ? 100.0 * (traced.sim_wips / traced.default_wips - 1.0)
          : 0.0;
  std::string gain_note = "no Harmony session, no paper reference";
  if (tuning) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "paper Fig 4: %.0f %%; model error %+.1f points",
                  paper_gain_pct, gain - paper_gain_pct);
    gain_note = buf;
  }
  add("harmony.gain_pct", gain, "%", "sim", gain_note);

  add("core.setup.immutable_ms", setup.immutable_ms, "ms", "host");
  add("core.setup.model_ms", setup.model_ms, "ms", "host");
  add("core.setup.experiment_ms", setup.experiment_ms, "ms", "host");
  add("core.apply_ms", span_total("core.apply"), "ms", "host",
      "apply_method_values, whole study");
  add("core.discarded_windows", static_cast<double>(traced.discarded), "count",
      "sim");

  add("obs.snapshot_ms", traced.snapshot_ms, "ms", "host",
      "registry JSON snapshot at study end");
  add("obs.trace_overhead_pct", trace_overhead_pct, "%", "host",
      "traced vs untraced iter_ms_p50");

  add("common.allocs_per_req", ratio(allocs, requests), "count", "host",
      "operator-new calls inside sim.simulate / round trips");
  add("common.heap_per_node_kb", setup.heap_per_node_kb, "KiB", "host");

  const std::map<std::string, double> layers = log.self_ms_by_layer();
  for (const char* layer : {"core", "sim", "harmony", "obs", "ctrl", "tpcw"}) {
    const auto it = layers.find(layer);
    add(std::string("self_ms.") + layer, it == layers.end() ? 0.0 : it->second,
        "ms", "host", "span self time, whole traced run");
  }
}

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Studies that fit `seconds` at `study_host_s` per study on a 4-core x86
/// host.  A fixed function of --seconds, so the simulated metrics repeat
/// exactly for a given seed whatever the host's speed.
std::size_t study_count(double seconds, double study_host_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / study_host_s));
}

/// Study k of a run simulates its own seed: averaging over several
/// independent trajectories is what keeps a run's figures steady.
std::uint64_t study_seed(std::uint64_t seed, std::size_t k) {
  return common::mix_seed(seed, 100 + k);
}

template <typename Instance>
void finish_traced(Study& study, Instance& inst, SpanLog& log,
                   const Counters& before) {
  study.counters = counter_delta(read_counters(*inst.system), before);
  const auto start = Clock::now();
  {
    Scope span(&log, "obs.snapshot");
    const std::string json = inst.system->metrics().json_string();
    if (json.empty()) throw std::runtime_error("empty registry snapshot");
  }
  study.snapshot_ms = ms_between(start, Clock::now());
}

void write_spans(const SpanLog& log, const RunOptions& options,
                 RunReport& report) {
  const std::string path =
      options.out_dir + "/spans_" + options.workload + ".csv";
  if (log.write_csv(path)) {
    report.notes.push_back("spans written to " + path);
  } else {
    report.notes.push_back("could not write " + path);
  }
}

void finish_report(RunReport& report, const Failures& failures,
                   const Accumulator& acc, Clock::time_point run_start) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu untraced studies (%zu for the sim metrics), %zu set-ups, "
                "%.1f s",
                acc.studies, acc.sim_studies, acc.setup_ms.size(),
                elapsed_s(run_start));
  report.notes.push_back(line);
  report.failures = failures.messages();
  if (failures.count() > report.failures.size()) {
    report.failures.push_back(std::to_string(failures.count()) +
                              " failed checks in total");
  }
}

/// The study protocol shared by every workload.  `build(seed, log, times)`
/// sets up one instance; `run_study(instance, log, hops)` runs one study on
/// it.  Untraced: one study per seed, end-to-end metrics.  Traced: the first
/// seed untraced, traced, then untraced again, so the tracing overhead is
/// measured against both sides; all three must give the same WIPS.
template <typename Build, typename RunStudy>
void run_studies(const RunOptions& options, double study_host_s,
                 double paper_gain_pct, bool tuning,
                 Build build, RunStudy run_study, Accumulator& acc,
                 Failures& failures, RunReport& report) {
  heap::reset_peak();
  auto untraced = [&](std::size_t k, bool for_sim) {
    SetupTimes t;
    auto inst = build(study_seed(options.seed, k), nullptr, t);
    Study study = run_study(inst, nullptr, nullptr);
    study.seed_index = k;
    acc.add(t, std::move(study), for_sim);
  };
  if (!options.trace) {
    // The simulated metrics take half the time on a 4-core x86 host; more
    // seeds follow until the time is used, for the host metrics only.
    const std::size_t sim_studies =
        study_count(0.5 * options.seconds, study_host_s);
    const auto start = Clock::now();
    for (std::size_t k = 0;
         k < sim_studies || elapsed_s(start) < options.seconds; ++k) {
      untraced(k, k < sim_studies);
    }
    end_to_end_metrics(report, acc, !tuning);
    report.attempted = acc.windows;
    return;
  }
  untraced(0, true);
  SpanLog log(1 << 16);
  log.set_run(1);
  SetupTimes t;
  auto inst = build(study_seed(options.seed, 0), &log, t);
  auto hops = std::make_unique<HopTrace>();
  inst.system->set_trace_recorder(hops->recorder());
  const Counters counters_before = read_counters(*inst.system);
  Study traced = run_study(inst, &log, hops.get());
  finish_traced(traced, inst, log, counters_before);
  inst.system->set_trace_recorder(nullptr);
  untraced(0, true);
  for (const Study& study : acc.first_seed) {
    failures.check(same_doubles(study.wips_series, traced.wips_series) &&
                       study.sim_wips == traced.sim_wips,
                   "traced and untraced studies differ in WIPS");
  }
  if (hops->overflowed()) {
    report.notes.push_back("warning: span ring overflowed in a window");
  }
  std::vector<double> traced_ms;
  for (const Window& w : traced.windows) traced_ms.push_back(w.host_ms);
  const double overhead_pct =
      100.0 * (median(traced_ms) / median(acc.window_ms) - 1.0);
  per_layer_metrics(report, traced, log, t, *hops, *inst.system,
                    overhead_pct, paper_gain_pct, tuning);
  write_spans(log, options, report);
  report.attempted = acc.windows + traced.windows.size();
}

RunReport run_browse_tune(const RunOptions& options) {
  const TuneSpec spec;
  RunReport report;
  Failures failures;
  Accumulator acc;
  const auto run_start = Clock::now();

  char line[320];
  std::snprintf(line, sizeof(line),
                "browse-tune: 1 line of %d proxy + %d app + %d db, %s mix, %d "
                "browsers (closed loop, 3.5 s mean think), %s, studies of "
                "%zu+%zu windows, threads=1",
                spec.shape.proxy_nodes, spec.shape.app_nodes,
                spec.shape.db_nodes,
                std::string(tpcw::workload_name(spec.mix)).c_str(),
                spec.browsers,
                std::string(core::tuning_method_name(
                                core::TuningMethod::kDuplication))
                    .c_str(),
                spec.iterations, 3 * (spec.validation + 1));
  report.notes.push_back(line);

  // (a) TuningDriver::run and the replayed loop agree on a short prefix.
  {
    const std::uint64_t seed0 = study_seed(options.seed, 0);
    SetupTimes t;
    TuneInstance inst = setup_tune(spec, seed0, nullptr, t);
    core::TuningDriver driver(*inst.system, *inst.experiment,
                              core::TuningDriver::Options{});
    const core::TuningResult reference =
        driver.run(kPrefixIterations, kPrefixValidation);
    SetupTimes t2;
    TuneInstance inst2 = setup_tune(spec, seed0, nullptr, t2);
    const Study replayed = replay(inst2, spec, kPrefixIterations,
                                  kPrefixValidation, nullptr, nullptr,
                                  failures);
    failures.check(same_doubles(reference.wips_series, replayed.wips_series),
                   "TuningDriver::run and the replayed loop differ in WIPS");
    failures.check(reference.validated_wips == replayed.sim_wips,
                   "TuningDriver::run and the replayed loop differ in "
                   "validated WIPS");
  }

  run_studies(
      options, spec.study_host_s, spec.paper_gain_pct, true,
      [&](std::uint64_t seed, SpanLog* log, SetupTimes& t) {
        return setup_tune(spec, seed, log, t);
      },
      [&](TuneInstance& inst, SpanLog* log, HopTrace* hops) {
        return replay(inst, spec, spec.iterations, spec.validation, log, hops,
                      failures);
      },
      acc, failures, report);
  finish_report(report, failures, acc, run_start);
  return report;
}

RunReport run_flash_overload(const RunOptions& options) {
  const FlashSpec spec;
  RunReport report;
  Failures failures;
  Accumulator acc;
  const auto run_start = Clock::now();

  char line[320];
  std::snprintf(line, sizeof(line),
                "flash-overload: 1 line of 2 proxy + 2 app + 2 db, Shopping "
                "mix, %d browsers (closed loop, 3.5 s mean think, retries "
                "off), x%.0f flash %.0f-%.0f s and rack outage %.0f-%.0f s "
                "every %.0f s, passes of %d cycles, %.0f s windows, threads=1",
                spec.browsers, spec.flash_peak, spec.flash_t0, spec.flash_t1,
                spec.rack_t0, spec.rack_t1, spec.cycle_s, spec.cycles,
                spec.window_s);
  report.notes.push_back(line);
  report.notes.push_back(
      "sim_wips / sim_p95_ms have no paper reference: unvalidated");

  // An untimed pass first: it warms the process (page faults, allocator
  // arenas) like browse-tune's prefix check does, and a pass is a
  // pure function of its seed, so the first timed pass must repeat it.
  Study warmup;
  {
    SetupTimes t;
    FlashInstance inst =
        setup_flash(spec, study_seed(options.seed, 0), nullptr, t);
    warmup = run_flash(inst, spec, nullptr, nullptr, failures);
  }
  run_studies(
      options, spec.pass_host_s, 0.0, false,
      [&](std::uint64_t seed, SpanLog* log, SetupTimes& t) {
        return setup_flash(spec, seed, log, t);
      },
      [&](FlashInstance& inst, SpanLog* log, HopTrace* hops) {
        return run_flash(inst, spec, log, hops, failures);
      },
      acc, failures, report);
  failures.check(
      same_doubles(acc.first_seed.front().wips_series, warmup.wips_series),
      "a repeated pass gave a different WIPS series");
  finish_report(report, failures, acc, run_start);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"browse-tune",
                                                 "flash-overload"};
  return names;
}

RunReport run(const RunOptions& options) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.workload == "flash-overload") return run_flash_overload(options);
  return run_browse_tune(options);
}

}  // namespace perfbench
