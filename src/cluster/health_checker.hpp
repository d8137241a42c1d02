// Periodic heartbeat probing with hysteresis.
//
// Models the monitoring daemon of the paper's testbed: every `period`, from
// construction until destruction, the checker probes the liveness of each
// node it was given and, after `mark_down_after`
// consecutive failures (resp. `mark_up_after` successes), flips the node's
// routing mark.  The two-threshold hysteresis is what keeps a *flapping*
// node from whipsawing the load balancer — a single missed heartbeat never
// changes routing.  Marks are published in one place, Node::marked_up():
// routers read it to build the availability mask per request, and
// Cluster::healthy_count() counts it for the reconfiguration controller's
// capacity accounting.
//
// Probes are simulated-time events on the checker's timeline, so runs
// remain bit-identical across thread counts; the probe itself reads
// Node::alive() synchronously — heartbeat RTT is far below the probe period
// on the testbed's switched Ethernet, so modelling it would add events
// without adding fidelity.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

class HealthChecker {
 public:
  struct Config {
    /// Probe interval; every node is probed once per tick.
    common::SimTime period = common::SimTime::millis(500);
    /// Consecutive failed probes before a node is marked down.
    int mark_down_after = 2;
    /// Consecutive successful probes before a marked-down node returns.
    int mark_up_after = 2;
  };

  /// Worst-case time from a crash to mark-down: the crash can land just
  /// after a probe, then `mark_down_after` more probes must fail.
  [[nodiscard]] static common::SimTime probe_budget(const Config& config) {
    return config.period * static_cast<double>(config.mark_down_after + 1);
  }

  /// Observer fired on each transition as (node, now_up).  Sized like an
  /// EventFn; SBO-required so observers cannot silently allocate.
  using TransitionFn =
      common::InlineFunction<void(NodeId, bool), 48,
                             common::SboPolicy::kRequired>;

  /// Probes `nodes` (a work line's slice of the cluster: core::SystemModel
  /// gives each line's checker that line's nodes, so health traffic and
  /// mark flips stay on the line's own timeline).  The first tick is one
  /// period from now; the destructor cancels the pending one.
  HealthChecker(sim::Simulator& sim, Cluster& cluster, const Config& config,
                const std::vector<NodeId>& nodes);

  HealthChecker(const HealthChecker&) = delete;
  HealthChecker& operator=(const HealthChecker&) = delete;
  ~HealthChecker();

  void set_transition_observer(TransitionFn observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  /// Probes that went unanswered (the probe budget being consumed; every
  /// `mark_down_after`-th consecutive one exhausts it into a mark-down).
  [[nodiscard]] std::uint64_t failed_probes() const { return failed_probes_; }
  [[nodiscard]] std::uint64_t mark_downs() const { return mark_downs_; }
  [[nodiscard]] std::uint64_t mark_ups() const { return mark_ups_; }
  /// Nodes currently marked down.
  [[nodiscard]] int nodes_down() const { return nodes_down_; }
  /// Total marked-down node-time: closed mark-down windows plus the open
  /// ones up to now.  The per-incident mark-down duration the tuner and
  /// the SLA accounting care about, in aggregate.
  [[nodiscard]] common::SimTime total_downtime() const;

 private:
  struct NodeState {
    NodeId id = 0;
    int consecutive_failures = 0;
    int consecutive_successes = 0;
    bool up = true;
    /// Mark-down instant while down (downtime accounting).
    common::SimTime down_since = common::SimTime::zero();
  };

  void tick();
  void probe(NodeState& state);
  void publish(NodeState& state, bool up);

  sim::Simulator& sim_;
  Cluster& cluster_;
  Config config_;
  /// One per probed node, in the order given at construction.
  std::vector<NodeState> states_;
  TransitionFn observer_;
  sim::EventId tick_id_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t failed_probes_ = 0;
  std::uint64_t mark_downs_ = 0;
  std::uint64_t mark_ups_ = 0;
  int nodes_down_ = 0;
  /// Downtime of already-closed mark-down windows.
  common::SimTime closed_downtime_ = common::SimTime::zero();
};

}  // namespace ah::cluster
