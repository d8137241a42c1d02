// Feedback-controlled admission: hold a latency SLO by shedding load.
//
// A proportional controller with a fuzzy deadband (after the response-time
// regulators of Venkatarama & Sekaran's autonomic e-commerce work) closes the loop between an observed p95 latency and an admit
// fraction in [kMinAdmit, 1].  Completed-request latencies accumulate in a
// windowed obs::Histogram; every kPeriod the controller compares the
// window's p95 against the target, nudges the admit fraction against the
// relative error, and resets the window.  The servers consult admit() per
// request and shed the remainder (fast-fail or serve-stale — the shed
// policy belongs to the server, not to this controller).
//
// This is the FAST control loop of the stack: admission reacts within
// seconds, reactive reconfiguration (core::ReconfigController) within tens
// of seconds, and the Harmony parameter tuner across whole measurement
// iterations.  Separating the timescales is what keeps the three loops from
// fighting (see DESIGN.md "Control-loop layering").
//
// Determinism: admit() hashes the request id against the current threshold
// — no RNG state, so the admitted subset is a pure function of (ids, kSalt,
// fraction) and runs are byte-identical at any thread count.  Everything
// here lives on one line's timeline; core::SystemModel gives each work
// line its own controller.
//
// Hot path: admit() and observe() run once per request and are
// allocation-free; the periodic tick() walks histogram pages only.
#pragma once

#include <cstdint>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/histogram.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::ctrl {

class AdmissionController {
 public:
  struct Config {
    /// The SLO: window p95 at or below this holds the admit fraction.
    common::SimTime target_p95 = common::SimTime::millis(500);
  };

  /// Control period: how often the admit fraction is reconsidered.
  static constexpr common::SimTime kPeriod = common::SimTime::seconds(1.0);
  /// Proportional gain on the relative p95 error.
  static constexpr double kGain = 0.4;
  /// Largest admit-fraction change per tick (slew limit).
  static constexpr double kMaxStep = 0.15;
  /// Floor of the admit fraction: some traffic always gets through, so the
  /// controller keeps receiving latency samples to recover on.
  static constexpr double kMinAdmit = 0.05;
  /// Windows with fewer samples are ignored (an idle or fully shed window
  /// carries no p95 signal).
  static constexpr std::uint64_t kMinSamples = 16;
  /// Fuzzy band shaping: inside kDeadband relative error the controller
  /// holds (no actuation on noise); between kDeadband and kOuterBand it
  /// applies half gain; beyond, full gain.
  static constexpr double kDeadband = 0.10;
  static constexpr double kOuterBand = 0.50;
  /// Hash salt for the admit decision.
  static constexpr std::uint64_t kSalt = 0x5ca1ab1e;

  /// Observer fired when the admit fraction actually changes (controller
  /// actuation — the system model uses it to taint measurement windows).
  using ChangeFn = common::InlineFunction<void(double), 48,
                                          common::SboPolicy::kRequired>;

  /// Ticks every kPeriod from construction until destruction: the first
  /// tick is one period from now, and the destructor cancels the pending
  /// one.
  AdmissionController(sim::Simulator& sim, const Config& config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;
  ~AdmissionController();

  void set_change_observer(ChangeFn observer) {
    observer_ = std::move(observer);
  }

  /// Per-request admit decision: deterministic hash of the request id
  /// against the current admit fraction.  Counts the outcome.
  [[nodiscard]] bool admit(std::uint64_t request_id) {
    if (threshold_ == kAdmitAll) {
      ++admitted_;
      return true;
    }
    if (common::mix_seed(request_id, kSalt) <= threshold_) {
      ++admitted_;
      return true;
    }
    ++shed_;
    return false;
  }

  /// Feeds one completed-request latency into the control window.  Only
  /// admitted completions belong here: shed responses are cheap by
  /// construction and would bias the controller into opening up.
  void observe(common::SimTime latency) {
    AH_OBS_RECORD_SPAN(&window_, latency);
  }

  [[nodiscard]] double admit_fraction() const { return fraction_; }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  /// Ticks that actually moved the admit fraction.
  [[nodiscard]] std::uint64_t adjustments() const { return adjustments_; }

 private:
  static constexpr std::uint64_t kAdmitAll = ~0ull;

  void tick();
  void set_fraction(double fraction);

  sim::Simulator& sim_;
  const Config config_;
  obs::Histogram window_;
  ChangeFn observer_;
  double fraction_ = 1.0;
  std::uint64_t threshold_ = kAdmitAll;
  sim::EventId tick_id_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t adjustments_ = 0;
};

}  // namespace ah::ctrl
