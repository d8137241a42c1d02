// Scripted, reproducible fault injection.
//
// A FaultPlan is a list of timed fault events — node crash/restart,
// fail-slow windows, link degradation windows — the fault half of a
// sim::ScenarioPlan, whose text grammar (scenario.hpp) is the one way to
// write it.  The FaultInjector schedules every event on the ordinary
// EventQueue, so faults interleave with workload events in one
// deterministic order: the same plan and seed produce byte-identical runs
// at any `--threads` setting, which is what makes recovery-time
// measurements comparable across machines.
//
// The sim layer knows nothing about clusters or web servers: events carry
// opaque node ids and magnitudes, and a handler installed by the layer that
// owns the topology (core::SystemModel) gives them meaning.  That keeps the
// dependency arrow pointing the same way as for every other sim primitive.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

/// Wildcard endpoint in link events: "any node".
inline constexpr std::uint32_t kFaultAnyNode = static_cast<std::uint32_t>(-1);

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,        // node stops answering; in-flight work is dropped
    kRestart,      // node returns to service
    kSlowStart,    // CPU service demand multiplied by `magnitude`
    kSlowEnd,      // fail-slow window closes
    kLinkDegrade,  // link node->peer: drop prob `magnitude`, extra `delay`
    kLinkRestore,  // link returns to normal
  };

  Kind kind = Kind::kCrash;
  common::SimTime at = common::SimTime::zero();
  std::uint32_t node = 0;  // subject node; link source for link events
  std::uint32_t peer = 0;  // link destination (link events only)
  double magnitude = 1.0;  // slow factor or drop probability
  common::SimTime delay = common::SimTime::zero();  // link extra delay
};

[[nodiscard]] std::string_view fault_kind_name(FaultEvent::Kind kind);

/// ScenarioPlan::parse expands each window entry (slow, link, rack,
/// switch) into a start and an end event.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
};

class FaultInjector {
 public:
  /// Receives each fault event at its scheduled time.  SBO-required: the
  /// dispatcher must be a thin trampoline (e.g. `[model](ev){...}`), never
  /// an allocating closure.
  using Handler = common::InlineFunction<void(const FaultEvent&), 48,
                                         common::SboPolicy::kRequired>;

  explicit FaultInjector(Simulator& sim) : sim_(sim) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  ~FaultInjector() { disarm(); }

  /// Schedules every event of `plan` (absolute times) and installs
  /// `handler`.  A second arm() first disarms the previous plan.  Events
  /// whose time is already past fire immediately, in plan order.
  void arm(const FaultPlan& plan, Handler handler);

  /// Cancels all not-yet-fired events.  Fired ones cannot be taken back.
  void disarm();

  /// True while events are still pending (fired ones no longer count).
  [[nodiscard]] bool armed() const { return remaining_ > 0; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  void fire(std::size_t index);

  Simulator& sim_;
  FaultPlan plan_;
  Handler handler_;
  std::vector<EventId> pending_ids_;
  std::size_t remaining_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace ah::sim
