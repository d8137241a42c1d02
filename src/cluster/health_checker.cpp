#include "cluster/health_checker.hpp"
#include "common/analysis.hpp"

#include <cassert>

AH_HOT_PATH_FILE;

namespace ah::cluster {

HealthChecker::HealthChecker(sim::Simulator& sim, Cluster& cluster,
                             const Config& config,
                             const std::vector<NodeId>& nodes)
    : sim_(sim), cluster_(cluster), config_(config) {
  assert(config_.period > common::SimTime::zero());
  assert(config_.mark_down_after >= 1);
  assert(config_.mark_up_after >= 1);
  states_.reserve(nodes.size());
  for (const NodeId id : nodes) states_.push_back(NodeState{.id = id});
  tick_id_ = sim_.schedule(config_.period, [this] { tick(); });
}

HealthChecker::~HealthChecker() { sim_.cancel(tick_id_); }

void HealthChecker::tick() {
  AH_HOT_ENTRY;  // periodic probe sweep driven by the event loop
  for (NodeState& state : states_) probe(state);
  tick_id_ = sim_.schedule(config_.period, [this] { tick(); });
}

void HealthChecker::probe(NodeState& state) {
  ++probes_;
  const bool responded = cluster_.node(state.id).alive();
  if (responded) {
    state.consecutive_failures = 0;
    if (!state.up && ++state.consecutive_successes >= config_.mark_up_after) {
      state.up = true;
      state.consecutive_successes = 0;
      publish(state, true);
    }
  } else {
    ++failed_probes_;
    state.consecutive_successes = 0;
    if (state.up && ++state.consecutive_failures >= config_.mark_down_after) {
      state.up = false;
      state.consecutive_failures = 0;
      publish(state, false);
    }
  }
}

void HealthChecker::publish(NodeState& state, bool up) {
  ++transitions_;
  if (up) {
    ++mark_ups_;
    if (nodes_down_ > 0) --nodes_down_;
    closed_downtime_ = closed_downtime_ + (sim_.now() - state.down_since);
  } else {
    ++mark_downs_;
    ++nodes_down_;
    state.down_since = sim_.now();
  }
  cluster_.node(state.id).set_marked_up(up);
  if (observer_) observer_(state.id, up);
}

common::SimTime HealthChecker::total_downtime() const {
  common::SimTime total = closed_downtime_;
  for (const NodeState& state : states_) {
    if (!state.up) total = total + (sim_.now() - state.down_since);
  }
  return total;
}

}  // namespace ah::cluster
