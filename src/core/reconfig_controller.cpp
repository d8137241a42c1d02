#include "core/reconfig_controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace ah::core {

namespace {

/// Bottleneck pressure of one reading: its hottest resource.
double peak_utilization(const harmony::NodeReading& reading) {
  double peak = 0.0;
  for (const double u : reading.utilization) peak = std::max(peak, u);
  return peak;
}

}  // namespace

ReconfigController::ReconfigController(SystemModel& system,
                                       harmony::ReconfigOptions options)
    : system_(system), reconfigurer_(std::move(options)) {}

std::optional<harmony::ReconfigDecision> ReconfigController::check() {
  const auto readings = system_.readings();
  const auto decision = reconfigurer_.decide(readings);
  if (!decision.has_value()) return std::nullopt;

  // Crashed/marked-down nodes are excluded from readings() but still count
  // toward Tier::size(), so move_node's >=1-member check alone would let a
  // move drain the last *healthy* node out of the donor tier.
  const auto donor_tier = system_.cluster().tier_of(decision->donor_node);
  if (system_.cluster().healthy_count(donor_tier) <= 1) {
    return std::nullopt;
  }

  system_.move_node(
      decision->donor_node,
      static_cast<cluster::TierKind>(decision->to_tier), decision->immediate,
      common::SimTime::seconds(
          reconfigurer_.options().config_cost_seconds));
  moves_.push_back(*decision);
  return decision;
}

void ReconfigController::enable_reactive(const ReactiveOptions& options) {
  if (system_.line_count() > 1) {
    throw std::logic_error(
        "reactive reconfiguration needs a one-line model (move_node counts "
        "tier membership cluster-wide)");
  }
  reactive_ = options;
  reactive_enabled_ = true;
  breach_streak_ = 0;
  system_.set_health_transition_hook(
      [this](cluster::NodeId id, bool up) { on_health_transition(id, up); });
}

std::optional<harmony::ReconfigDecision> ReconfigController::observe_p95(
    common::SimTime p95) {
  if (!reactive_enabled_) return std::nullopt;
  if (p95 <= reactive_.p95_target) {
    breach_streak_ = 0;
    return std::nullopt;
  }
  if (++breach_streak_ < kBreachStreak) return std::nullopt;
  breach_streak_ = 0;
  // The tier of the hottest node is where the latency is coming from.
  const auto readings = system_.readings();
  const harmony::NodeReading* hottest = nullptr;
  for (const auto& reading : readings) {
    if (hottest == nullptr ||
        peak_utilization(reading) > peak_utilization(*hottest)) {
      hottest = &reading;
    }
  }
  if (hottest == nullptr) return std::nullopt;
  return borrow_into(system_.cluster().tier_of(hottest->node_id),
                     hottest->node_id);
}

void ReconfigController::on_health_transition(cluster::NodeId id, bool up) {
  if (!reactive_enabled_ || up) return;
  const auto tier = system_.cluster().tier_of(id);
  if (system_.cluster().healthy_count(tier) >= kMinHealthy) return;
  borrow_into(tier, id);
}

std::optional<harmony::ReconfigDecision> ReconfigController::borrow_into(
    cluster::TierKind needy, cluster::NodeId relieved) {
  if (system_.now() < cooldown_until_) return std::nullopt;
  // Donor: the least-pressured healthy node outside the needy tier whose
  // own tier keeps at least one healthy member after the move.
  const auto readings = system_.readings();
  const harmony::NodeReading* donor = nullptr;
  for (const auto& reading : readings) {
    const auto tier = system_.cluster().tier_of(reading.node_id);
    if (tier == needy) continue;
    if (system_.cluster().healthy_count(tier) <= 1) continue;
    if (system_.move_in_progress(reading.node_id)) continue;
    if (donor == nullptr ||
        peak_utilization(reading) < peak_utilization(*donor)) {
      donor = &reading;
    }
  }
  if (donor == nullptr) return std::nullopt;

  harmony::ReconfigDecision decision;
  decision.overloaded_node = relieved;
  decision.donor_node = donor->node_id;
  decision.from_tier = static_cast<int>(system_.cluster().tier_of(donor->node_id));
  decision.to_tier = static_cast<int>(needy);
  decision.cost_seconds = kConfigCostSeconds;
  decision.immediate = kImmediate;

  system_.move_node(decision.donor_node, needy, decision.immediate,
                    common::SimTime::seconds(decision.cost_seconds));
  system_.note_disturbance();
  cooldown_until_ = system_.now() + kCooldown;
  ++reactive_moves_;
  moves_.push_back(decision);
  return decision;
}

}  // namespace ah::core
