// Binds the topology-agnostic reconfiguration algorithm to a SystemModel.
//
// The paper runs the reconfiguration check at a much lower frequency than
// parameter tuning (e.g. every 50 iterations); the experiment loop calls
// `check()` at that cadence.  A positive decision is executed through
// SystemModel::move_node with the configuration cost F from the options.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/system_model.hpp"
#include "harmony/reconfig.hpp"

namespace ah::core {

class ReconfigController {
 public:
  /// Reactive mode: instead of merely refusing unsafe donations at the
  /// periodic check(), the controller responds to two event-shaped signals
  /// — a HealthChecker mark-down that leaves a tier under-provisioned, and
  /// a sustained p95 breach reported via observe_p95() — by borrowing the
  /// least-loaded healthy node from another tier for the bottleneck role.
  /// Hysteresis comes from three places: the breach streak (one bad
  /// window never moves a node), the cooldown between reactive moves, and
  /// the existing donor guard (never drain a tier's last healthy node).
  /// This is the MIDDLE control loop: slower than admission control
  /// (seconds), much faster than the Harmony tuner (whole tuning runs).
  struct ReactiveOptions {
    /// p95 above this counts as a breach in observe_p95().
    common::SimTime p95_target = common::SimTime::millis(800);
  };

  /// Consecutive breached observations before a borrow.
  static constexpr int kBreachStreak = 3;
  /// Minimum spacing between reactive moves.
  static constexpr common::SimTime kCooldown = common::SimTime::seconds(60.0);
  /// A mark-down that leaves its tier with fewer healthy nodes than this
  /// triggers a borrow: only a fully dead tier does.
  static constexpr std::size_t kMinHealthy = 1;
  /// Reactive borrows skip the drain wait: the needy tier is on fire.
  static constexpr bool kImmediate = true;
  /// Configuration cost F charged for a reactive move (seconds).
  static constexpr double kConfigCostSeconds = 4.0;

  ReconfigController(SystemModel& system, harmony::ReconfigOptions options =
                                              SystemModel::default_reconfig_options());

  /// Runs steps 1-5 on the current monitor readings; executes and returns
  /// the decision when one is made.
  std::optional<harmony::ReconfigDecision> check();

  /// Arms reactive mode: installs the health-transition hook on the model
  /// and accepts observe_p95() reports.  Throws std::logic_error on a
  /// model with more than one line, which SystemModel::move_node refuses.
  void enable_reactive(const ReactiveOptions& options);
  [[nodiscard]] bool reactive_enabled() const { return reactive_enabled_; }

  /// Feeds one measured p95 (typically once per measurement bucket).
  /// After kBreachStreak consecutive breaches, borrows a node for the
  /// tier hosting the hottest node.  Returns the executed decision.
  std::optional<harmony::ReconfigDecision> observe_p95(common::SimTime p95);

  /// Moves executed by reactive triggers (subset of moves()).
  [[nodiscard]] std::uint64_t reactive_moves() const {
    return reactive_moves_;
  }

  /// Decisions executed so far.
  [[nodiscard]] const std::vector<harmony::ReconfigDecision>& moves() const {
    return moves_;
  }

 private:
  void on_health_transition(cluster::NodeId id, bool up);
  /// Borrows the least-loaded healthy node from another tier into `needy`
  /// to relieve node `relieved` (cooldown + donor guard applied).  Returns
  /// the executed decision.
  std::optional<harmony::ReconfigDecision> borrow_into(
      cluster::TierKind needy, cluster::NodeId relieved);

  SystemModel& system_;
  harmony::Reconfigurer reconfigurer_;
  std::vector<harmony::ReconfigDecision> moves_;
  ReactiveOptions reactive_{};
  bool reactive_enabled_ = false;
  int breach_streak_ = 0;
  common::SimTime cooldown_until_ = common::SimTime::zero();
  std::uint64_t reactive_moves_ = 0;
};

}  // namespace ah::core
