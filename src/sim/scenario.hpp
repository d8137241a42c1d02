// Seeded scenario grammar: faults + arrival modulation + mix drift.
//
// A ScenarioPlan is a FaultPlan (fault_injector.hpp) plus the load-side
// half of an overload experiment: arrival-pattern modulation (flash
// crowds, diurnal swells, ramps), workload-mix drift, and correlated
// failure domains (whole racks, shared switches) that expand into the
// plain fault events.  One text string therefore scripts a complete "black
// Friday" run — the flash crowd, the mix shifting toward ordering, and the
// rack that picks that moment to die — reproducibly at any `--threads`
// setting, because everything lands on the ordinary event queues.
//
// Text format (entries separated by ';', whitespace ignored, times in
// simulated seconds, node `*` = any node in link entries).  Faults:
//
//   crash:<node>@<t>              node stops answering at t
//   restart:<node>@<t>            node returns at t
//   slow:<node>@<t0>-<t1>x<f>     CPU demand multiplied by f in the window
//   link:<a>-<b>@<t0>-<t1>,drop=<p>[,delay=<ms>ms]
//                                 directed link a->b drops each message
//                                 with probability p and delays survivors
//                                 by <ms> milliseconds during the window
//
// Load and correlated failures:
//
//   flash:<peak>@<t0>-<t1>        arrival rate swells linearly to <peak>x
//                                 at the window midpoint and back to 1x
//   ramp:<factor>@<t0>-<t1>       arrival rate ramps linearly to <factor>x
//                                 across the window and HOLDS it after t1
//   diurnal:<amp>@<t0>-<t1>/<p>   rate swings 1 +/- <amp> sinusoidally
//                                 with period <p> seconds inside the window
//   mix:<name>@<t>                workload mix switches at t (browsing,
//                                 shopping, ordering)
//   rack:<n+n+...>@<t0>-<t1>      correlated outage: every listed node
//                                 crashes at t0 and restarts at t1
//   switch:<n+n+...>@<t0>-<t1>,drop=<p>[,delay=<ms>ms]
//                                 shared-switch degradation: every link
//                                 touching a listed node (both directions)
//                                 drops/delays during the window
//
// Arrival modulation is applied by the workload as a think-time divisor:
// factor 2.0 halves mean think time, roughly doubling offered load.  A
// factor of exactly 1.0 leaves think times bit-identical to an unmodulated
// run, which is what keeps the golden benchmark CSVs stable when no
// scenario is installed.
//
// Example: "flash:3@60-180; crash:3@120; restart:3@300;
//           link:*-2@400-460,drop=0.2,delay=5ms"
//
// The parser is hardened: entry start times must be non-decreasing, a node
// cannot crash twice without a restart in between (nor restart uncrashed),
// slow windows on one node must not overlap, and rack/switch member lists
// must not repeat a node.  Errors carry line/column positions.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/analysis.hpp"
#include "common/units.hpp"
#include "sim/fault_injector.hpp"

// ArrivalPhase::factor runs per browser think-time draw; the parser itself
// is cold but lives in scenario.cpp.
AH_HOT_PATH_FILE;

namespace ah::sim {

/// One arrival-modulation window.  Factors multiply, so overlapping phases
/// compose (a diurnal swell under a flash crowd).
struct ArrivalPhase {
  enum class Kind : std::uint8_t {
    kFlash,    // triangular: 1 -> magnitude at midpoint -> 1
    kRamp,     // linear 1 -> magnitude across the window, holds after t1
    kDiurnal,  // 1 + magnitude * sin(2*pi*(now - t0)/period) in the window
  };

  Kind kind = Kind::kFlash;
  common::SimTime t0 = common::SimTime::zero();
  common::SimTime t1 = common::SimTime::zero();
  double magnitude = 1.0;
  common::SimTime period = common::SimTime::zero();  // diurnal only

  /// Rate factor contributed by this phase at `now`; 1.0 outside the
  /// window (ramp holds `magnitude` after t1).  Pure and alloc-free — this
  /// runs per browser think-time draw on the hot path.
  [[nodiscard]] double factor(common::SimTime now) const {
    if (kind == Kind::kRamp && now >= t1) return magnitude;
    if (now < t0 || now >= t1) return 1.0;
    const double span = (t1 - t0).as_seconds();
    const double x = (now - t0).as_seconds() / span;  // 0..1 in window
    switch (kind) {
      case Kind::kFlash: {
        const double tri = x < 0.5 ? 2.0 * x : 2.0 * (1.0 - x);
        return 1.0 + (magnitude - 1.0) * tri;
      }
      case Kind::kRamp:
        return 1.0 + (magnitude - 1.0) * x;
      case Kind::kDiurnal: {
        constexpr double kTwoPi = 6.283185307179586;
        const double t = (now - t0).as_seconds();
        return 1.0 + magnitude * std::sin(kTwoPi * t / period.as_seconds());
      }
    }
    return 1.0;
  }
};

/// Product of all phase factors; an empty modulation is identically 1.0.
struct ArrivalModulation {
  std::vector<ArrivalPhase> phases;

  [[nodiscard]] bool empty() const { return phases.empty(); }

  [[nodiscard]] double factor(common::SimTime now) const {
    double f = 1.0;
    for (const ArrivalPhase& phase : phases) f *= phase.factor(now);
    return f;
  }
};

/// Scheduled workload-mix switch.  The name is resolved by the workload
/// layer (tpcw) at install time; the parser only checks it is an
/// identifier.
struct MixChange {
  common::SimTime at = common::SimTime::zero();
  std::string mix;
};

struct ScenarioPlan {
  FaultPlan faults;
  ArrivalModulation arrival;
  std::vector<MixChange> mix_changes;

  [[nodiscard]] bool empty() const {
    return faults.empty() && arrival.empty() && mix_changes.empty();
  }

  /// Parses the text format documented above.  Returns std::nullopt on
  /// malformed input; when `error` is non-null it receives a description
  /// with line/column.
  static std::optional<ScenarioPlan> parse(std::string_view text,
                                           std::string* error = nullptr);
};

}  // namespace ah::sim
