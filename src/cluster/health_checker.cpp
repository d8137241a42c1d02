#include "cluster/health_checker.hpp"
#include "common/analysis.hpp"

#include <cassert>

AH_HOT_PATH_FILE;

namespace ah::cluster {

HealthChecker::HealthChecker(sim::Simulator& sim, Cluster& cluster,
                             const Config& config)
    : sim_(sim), cluster_(cluster), config_(config) {
  assert(config_.period > common::SimTime::zero());
  assert(config_.mark_down_after >= 1);
  assert(config_.mark_up_after >= 1);
}

HealthChecker::~HealthChecker() { stop(); }

void HealthChecker::start() {
  if (running_) return;
  running_ = true;
  tick_id_ = sim_.schedule(config_.period, [this] { tick(); });
}

void HealthChecker::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(tick_id_);
  tick_id_ = 0;
}

bool HealthChecker::node_up(NodeId id) const {
  if (id >= states_.size()) return true;  // never probed: assumed healthy
  return states_[id].up;
}

void HealthChecker::tick() {
  AH_HOT_ENTRY;  // periodic probe sweep driven by the event loop
  if (states_.size() < cluster_.node_count()) {
    states_.resize(cluster_.node_count());
  }
  if (scope_.empty()) {
    for (NodeId id = 0; id < states_.size(); ++id) {
      probe(id, states_[id]);
    }
  } else {
    for (const NodeId id : scope_) {
      probe(id, states_.at(id));
    }
  }
  tick_id_ = sim_.schedule(config_.period, [this] { tick(); });
}

void HealthChecker::probe(NodeId id, NodeState& state) {
  ++probes_;
  const bool responded = cluster_.node(id).alive();
  if (responded) {
    state.consecutive_failures = 0;
    if (!state.up && ++state.consecutive_successes >= config_.mark_up_after) {
      state.up = true;
      state.consecutive_successes = 0;
      publish(id, true);
    }
  } else {
    ++failed_probes_;
    state.consecutive_successes = 0;
    if (state.up && ++state.consecutive_failures >= config_.mark_down_after) {
      state.up = false;
      state.consecutive_failures = 0;
      publish(id, false);
    }
  }
}

void HealthChecker::publish(NodeId id, bool up) {
  ++transitions_;
  NodeState& state = states_.at(id);
  if (up) {
    ++mark_ups_;
    if (nodes_down_ > 0) --nodes_down_;
    closed_downtime_ = closed_downtime_ + (sim_.now() - state.down_since);
  } else {
    ++mark_downs_;
    ++nodes_down_;
    state.down_since = sim_.now();
  }
  cluster_.node(id).set_marked_up(up);
  if (observer_) observer_(id, up);
}

common::SimTime HealthChecker::total_downtime() const {
  common::SimTime total = closed_downtime_;
  for (const NodeState& state : states_) {
    if (!state.up) total = total + (sim_.now() - state.down_since);
  }
  return total;
}

}  // namespace ah::cluster
