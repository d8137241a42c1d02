#include "tpcw/metrics.hpp"

#include "common/analysis.hpp"

// WipsMeter::record runs once per completed interaction.
AH_HOT_PATH_FILE;

namespace ah::tpcw {

void WipsMeter::arm(common::SimTime start, common::SimTime end) {
  start_ = start;
  end_ = end;
  ok_ = 0;
  browse_ok_ = 0;
  errors_ = 0;
  latency_hist_.reset();
}

bool WipsMeter::record(bool ok, bool browse, common::SimTime now,
                       common::SimTime latency) {
  if (now < start_ || now >= end_) return false;
  if (!ok) {
    ++errors_;
    return true;
  }
  ++ok_;
  if (browse) ++browse_ok_;
  AH_LINT_ALLOW(obs_hot_path, "meter-owned histogram, always present");
  latency_hist_.record(latency);
  return true;
}

double WipsMeter::wips() const {
  const double seconds = (end_ - start_).as_seconds();
  return seconds > 0.0 ? static_cast<double>(ok_) / seconds : 0.0;
}

double WipsMeter::wips_browse() const {
  const double seconds = (end_ - start_).as_seconds();
  return seconds > 0.0 ? static_cast<double>(browse_ok_) / seconds : 0.0;
}

double WipsMeter::wips_order() const {
  const double seconds = (end_ - start_).as_seconds();
  return seconds > 0.0 ? static_cast<double>(ok_ - browse_ok_) / seconds : 0.0;
}

double WipsMeter::error_ratio() const {
  const std::uint64_t total = ok_ + errors_;
  return total > 0 ? static_cast<double>(errors_) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace ah::tpcw
