// Periodic utilization sampling.
//
// The reconfiguration algorithm (paper Section IV) reacts to *smoothed*
// resource utilization, not instantaneous readings; this monitor samples a
// set of probes every kPeriod, from construction until destruction, and
// keeps an EWMA per probe.  Probes are closures so the monitor needs no
// knowledge of nodes or resources.
#pragma once

#include <string>
#include <vector>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

class UtilizationMonitor {
 public:
  /// A probe returns the utilization accumulated since its previous call,
  /// in [0, 1+] (values above 1 are possible transiently after a capacity
  /// shrink).  Registered once at startup but sampled every monitor period,
  /// so it is a move-only InlineFunction rather than a std::function.
  using Probe = common::InlineFunction<double()>;

  /// Sampling period.
  static constexpr common::SimTime kPeriod = common::SimTime::seconds(5.0);
  /// EWMA weight of the newest sample.
  static constexpr double kEwmaAlpha = 0.3;

  /// Arms the first sample one kPeriod from now; the destructor cancels
  /// the pending one.
  explicit UtilizationMonitor(Simulator& sim);
  ~UtilizationMonitor();

  UtilizationMonitor(const UtilizationMonitor&) = delete;
  UtilizationMonitor& operator=(const UtilizationMonitor&) = delete;

  /// Registers a probe; returns its index for later reads.
  std::size_t add_probe(std::string name, Probe probe);

  /// Forces a sample of all probes right now.
  void sample_now();

  [[nodiscard]] std::size_t probe_count() const { return probes_.size(); }
  [[nodiscard]] const std::string& probe_name(std::size_t i) const;
  /// Smoothed (EWMA) utilization of probe i; 0 before the first sample.
  [[nodiscard]] double smoothed(std::size_t i) const;
  /// Most recent raw sample of probe i; 0 before the first sample.
  [[nodiscard]] double last_raw(std::size_t i) const;
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

 private:
  struct Entry {
    std::string name;
    Probe probe;
    common::Ewma ewma;
    double last_raw = 0.0;
  };

  void schedule_next();

  Simulator& sim_;
  std::vector<Entry> probes_;
  EventId pending_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace ah::sim
