#include "ctrl/admission_controller.hpp"

#include <cassert>
#include <cmath>

AH_HOT_PATH_FILE;

namespace ah::ctrl {

AdmissionController::AdmissionController(sim::Simulator& sim,
                                         const Config& config)
    : sim_(sim), config_(config) {
  assert(config_.target_p95 > common::SimTime::zero());
  tick_id_ = sim_.schedule(kPeriod, [this] { tick(); });
}

AdmissionController::~AdmissionController() { sim_.cancel(tick_id_); }

void AdmissionController::tick() {
  AH_HOT_ENTRY;  // periodic control step driven by the event loop
  ++ticks_;
  if (window_.count() >= kMinSamples) {
    const double target_us =
        static_cast<double>(config_.target_p95.as_micros());
    const double p95_us = static_cast<double>(window_.p95_us());
    // Relative error: positive when the SLO is breached.
    const double err = (p95_us - target_us) / target_us;
    double gain = kGain;
    const double mag = std::fabs(err);
    if (mag <= kDeadband) {
      gain = 0.0;  // hold: don't actuate on noise
    } else if (mag < kOuterBand) {
      gain *= 0.5;  // gentle correction inside the outer band
    }
    double step = -gain * err;
    if (step > kMaxStep) step = kMaxStep;
    if (step < -kMaxStep) step = -kMaxStep;
    if (step != 0.0) set_fraction(fraction_ + step);
  }
  window_.reset();  // keeps pages: no allocation on later windows
  tick_id_ = sim_.schedule(kPeriod, [this] { tick(); });
}

void AdmissionController::set_fraction(double fraction) {
  if (fraction < kMinAdmit) fraction = kMinAdmit;
  if (fraction > 1.0) fraction = 1.0;
  if (fraction == fraction_) return;
  fraction_ = fraction;
  // 2^64 * fraction as the hash acceptance threshold; fraction == 1 maps
  // to the sentinel so a fully open controller never computes the hash.
  threshold_ = fraction_ >= 1.0
                   ? kAdmitAll
                   : static_cast<std::uint64_t>(fraction_ * 0x1.0p64);
  ++adjustments_;
  if (observer_) observer_(fraction_);
}

}  // namespace ah::ctrl
