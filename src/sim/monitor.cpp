#include "sim/monitor.hpp"
#include "common/analysis.hpp"

#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

UtilizationMonitor::UtilizationMonitor(Simulator& sim) : sim_(sim) {
  schedule_next();
}

UtilizationMonitor::~UtilizationMonitor() { sim_.cancel(pending_); }

std::size_t UtilizationMonitor::add_probe(std::string name, Probe probe) {
  probes_.push_back(
      Entry{std::move(name), std::move(probe), common::Ewma{kEwmaAlpha}, 0.0});
  return probes_.size() - 1;
}

void UtilizationMonitor::sample_now() {
  for (auto& entry : probes_) {
    entry.last_raw = entry.probe();
    entry.ewma.add(entry.last_raw);
  }
  ++samples_;
}

const std::string& UtilizationMonitor::probe_name(std::size_t i) const {
  return probes_.at(i).name;
}

double UtilizationMonitor::smoothed(std::size_t i) const {
  return probes_.at(i).ewma.value();
}

double UtilizationMonitor::last_raw(std::size_t i) const {
  return probes_.at(i).last_raw;
}

void UtilizationMonitor::schedule_next() {
  pending_ = sim_.schedule(kPeriod, [this] {
    AH_HOT_ENTRY;  // periodic sampling tick driven by the event loop
    sample_now();
    schedule_next();
  });
}

}  // namespace ah::sim
