// TPC-W web-interaction response-time (WIRT) constraints.
//
// The TPC-W specification (clause 5.5) requires that 90% of each web
// interaction's responses complete within a per-interaction limit — a run
// whose WIPS was achieved by starving some interaction class does not
// comply.  This module keeps one latency histogram per interaction and
// checks its 90th percentile against the spec limits, which is how a tuned
// configuration is shown to be *valid*, not just fast.  The reported p90 is
// the upper bound of the histogram bucket holding it (or the exact maximum
// when that is lower), so it is never below the true p90 and a "compliant"
// verdict is never optimistic.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "obs/histogram.hpp"
#include "tpcw/interactions.hpp"

namespace ah::tpcw {

/// Spec table: 90th-percentile limit per interaction, in seconds.
[[nodiscard]] double wirt_limit_seconds(Interaction interaction);

class WirtTracker {
 public:
  struct Result {
    Interaction interaction{};
    std::size_t samples = 0;
    double p90_seconds = 0.0;
    double limit_seconds = 0.0;
    bool compliant = true;  // vacuously true without samples
  };

  /// Records one successful interaction's response time.
  void record(Interaction interaction, common::SimTime latency);

  /// Adds another tracker's samples (one work line's into a run's).
  void merge(const WirtTracker& other);

  /// Discards all samples.
  void reset();

  [[nodiscard]] std::size_t samples(Interaction interaction) const;

  /// Per-interaction compliance snapshot.
  [[nodiscard]] Result check(Interaction interaction) const;

  /// All 14 interactions.
  [[nodiscard]] std::vector<Result> check_all() const;

  /// True when every interaction with samples meets its limit.
  [[nodiscard]] bool compliant() const;

 private:
  [[nodiscard]] const obs::Histogram& latency(Interaction interaction) const {
    return latency_[static_cast<std::size_t>(interaction)];
  }

  std::array<obs::Histogram, kInteractionCount> latency_;
};

}  // namespace ah::tpcw
