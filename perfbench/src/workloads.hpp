// The benchmark's workloads and the metrics one run of them reports.
//
// Every workload is driven through the public API of core, harmony, tpcw
// and sim from a seed; run() builds the inputs, measures, checks the
// simulated outputs and returns every metric with its unit and clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: untraced studies, end-to-end metrics.  true: the first seed's
  /// study untraced, traced and untraced again, per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its span CSV.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  // "host" (wall clock) or "sim" (simulated time)
  std::string note;   // printed beside the value
};

struct RunReport {
  /// Failed correctness checks; a run with any is failed as a whole.
  std::vector<std::string> failures;
  /// Timed measurement windows (the run's operations).
  std::uint64_t attempted = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed with the metric table but left out of the JSON result.
  std::vector<Metric> printed_only;
  /// Free-form lines printed before the metric table.
  std::vector<std::string> notes;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload.  Throws std::invalid_argument on an unknown name.
[[nodiscard]] RunReport run(const RunOptions& options);

}  // namespace perfbench
