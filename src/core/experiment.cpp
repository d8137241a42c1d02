#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>

namespace ah::core {

Experiment::Experiment(SystemModel& system, const Config& config)
    : system_(system), config_(config), workload_(config.workload) {
  const std::size_t lines = system_.line_count();
  assert(lines > 0);
  const int per_line =
      std::max(1, config_.browsers / static_cast<int>(lines));
  tpcw::Workload::Config wc;
  wc.browsers = per_line;
  wc.item_count = config_.item_count;
  // One popularity CDF for every line: the model's shared table when it
  // covers this item scale, otherwise one built here.  Sampling draws from
  // each browser's RNG, so sharing is bit-identical to per-line tables.
  wc.shared_popularity = system_.shared_popularity();
  if (wc.shared_popularity == nullptr ||
      wc.shared_popularity->size() != wc.item_count ||
      wc.shared_popularity->alpha() != tpcw::Workload::kZipfAlpha) {
    wc.shared_popularity = std::make_shared<const tpcw::ZipfSampler>(
        wc.item_count, tpcw::Workload::kZipfAlpha);
  }
  for (std::size_t li = 0; li < lines; ++li) {
    meters_.push_back(std::make_unique<tpcw::WipsMeter>());
    wc.seed = common::mix_seed(config_.seed, li);
    workloads_.push_back(std::make_unique<tpcw::Workload>(
        system_.line_simulator(li), system_.frontend(li),
        &tpcw::Mix::standard(workload_), *meters_.back(), wc));
  }
}

void Experiment::set_workload(tpcw::WorkloadKind kind) {
  workload_ = kind;
  for (auto& workload : workloads_) {
    workload->set_mix(&tpcw::Mix::standard(kind));
  }
}

tpcw::WirtTracker Experiment::wirt() const {
  tpcw::WirtTracker merged;
  for (const auto& workload : workloads_) merged.merge(workload->wirt());
  return merged;
}

void Experiment::apply_scenario(const sim::ScenarioPlan& plan) {
  system_.install_scenario(plan);
  const sim::ScenarioPlan* installed = system_.scenario();
  for (auto& workload : workloads_) {
    workload->set_arrival_modulation(&installed->arrival);
    workload->apply_mix_schedule(installed->mix_changes);
  }
}

const tpcw::WipsMeter& Experiment::meter(std::size_t line) const {
  return *meters_.at(line);
}

IterationResult Experiment::run_iteration() {
  if (!started_) {
    started_ = true;
    for (auto& workload : workloads_) workload->start();
  }

  // All line timelines agree at iteration boundaries (they are advanced to
  // the same barrier below), so line 0's clock stands in for "now".
  const common::SimTime start = system_.now();
  const common::SimTime measure_from = start + config_.iteration.warmup;
  const common::SimTime measure_to = measure_from + config_.iteration.measure;
  for (auto& meter : meters_) meter->arm(measure_from, measure_to);

  const std::uint64_t disturbances_before = system_.disturbance_count();
  // Advance every line to the window end — concurrently when a thread
  // pool is attached.  The merge below reads meters in line order, so the
  // result is identical at any thread count.
  system_.run_all_until(start + config_.iteration.total());
  ++iterations_;

  IterationResult result;
  result.disturbed = system_.disturbance_count() != disturbances_before;
  result.line_wips.reserve(meters_.size());
  std::uint64_t ok_total = 0;
  std::uint64_t err_total = 0;
  for (const auto& meter : meters_) {
    result.wips += meter->wips();
    result.wips_browse += meter->wips_browse();
    result.wips_order += meter->wips_order();
    result.line_wips.push_back(meter->wips());
    ok_total += meter->completed_ok();
    err_total += meter->errors();
  }
  // The mean and percentiles come from the merged per-line window
  // histograms (bucket-wise sums — cheap, cold path, once per iteration).
  obs::Histogram window;
  for (const auto& meter : meters_) window.merge(meter->latency_histogram());
  if (window.count() > 0) {
    result.mean_latency_ms = window.mean_us() / 1e3;
    result.p50_ms = static_cast<double>(window.p50_us()) / 1e3;
    result.p95_ms = static_cast<double>(window.p95_us()) / 1e3;
    result.p99_ms = static_cast<double>(window.p99_us()) / 1e3;
    result.max_ms = static_cast<double>(window.max_us()) / 1e3;
  }
  const std::uint64_t total = ok_total + err_total;
  result.error_ratio =
      total > 0 ? static_cast<double>(err_total) / static_cast<double>(total)
                : 0.0;
  return result;
}

}  // namespace ah::core
