// WIPS measurement (TPC-W primary metric).
//
// The meter counts completed web interactions inside a measurement window
// and derives WIPS = successful completions / window length, together with
// error counts, the browse/order split (WIPSb / WIPSo views), and latency
// statistics.  The warm-up/measure/cool-down protocol of the paper is
// expressed by (re)arming the window each iteration.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "obs/histogram.hpp"

namespace ah::tpcw {

class WipsMeter {
 public:
  /// Arms a measurement window [start, end).  Completions outside it are
  /// ignored.  Resets all counters.
  void arm(common::SimTime start, common::SimTime end);

  /// Records an interaction completion at `now`.  Returns whether `now`
  /// fell inside the armed window (only then is it counted).
  bool record(bool ok, bool browse, common::SimTime now,
              common::SimTime latency);

  [[nodiscard]] common::SimTime window_start() const { return start_; }
  [[nodiscard]] common::SimTime window_end() const { return end_; }

  [[nodiscard]] std::uint64_t completed_ok() const { return ok_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }

  /// Successful interactions per second over the armed window.
  [[nodiscard]] double wips() const;
  /// WIPS over Browse-class interactions only.
  [[nodiscard]] double wips_browse() const;
  /// WIPS over Order-class interactions only.
  [[nodiscard]] double wips_order() const;
  /// Fraction of interactions that failed (rejections).
  [[nodiscard]] double error_ratio() const;

  /// Latency distribution of in-window successful completions (its exact
  /// count and sum give the mean).  Always on: recording is a counter
  /// increment (obs::Histogram), so the meter stays passive and golden
  /// outputs are unaffected.
  [[nodiscard]] const obs::Histogram& latency_histogram() const {
    return latency_hist_;
  }

 private:
  common::SimTime start_ = common::SimTime::zero();
  common::SimTime end_ = common::SimTime::zero();
  std::uint64_t ok_ = 0;
  std::uint64_t browse_ok_ = 0;
  std::uint64_t errors_ = 0;
  obs::Histogram latency_hist_;
};

}  // namespace ah::tpcw
