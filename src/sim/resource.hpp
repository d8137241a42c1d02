// Queueing resource: k identical servers in front of a FIFO queue.
//
// The queueing primitive of the cluster model: CPU cores and disk spindles
// are Resources with different capacities and service demands, and
// sim::SlotPool covers the pools held across downstream waits (servlet/AJP
// threads, database connections).  A NIC is a cluster::NicLink, the
// one-server case kept as arithmetic so that it needs no completion event.
// Contention, saturation and the latency knees that the Active Harmony tuner
// exploits all emerge from the queueing behaviour here rather than from
// hand-authored response curves.
#pragma once

#include <cstdint>
#include <string>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/ring_buffer.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

class Resource {
 public:
  /// Callback invoked when a job finishes service.  Capacity 16: hot-path
  /// callers park per-request state in a pooled struct and capture a single
  /// pointer, and start_service wraps the Completion in a
  /// [this, on_complete] closure that must fit the simulator's 32-byte
  /// EventFn buffer (8 for `this` + sizeof(Completion) 24 = 32).
  using Completion = common::InlineFunction<void(), 16>;

  /// `servers` identical servers; service times start at their demand
  /// (slowdown 1.0).
  Resource(Simulator& sim, std::string name, int servers);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Submits a job with the given service demand; it waits in an
  /// unbounded FIFO line while every server is busy.  `on_complete` fires
  /// when the job finishes service.
  void submit(common::SimTime demand, Completion on_complete);

  /// Changes the service-time multiplier (>1 = slower) for jobs that start
  /// from now on: paging and fail-slow faults scale demands through it.
  void set_slowdown(double slowdown);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int servers() const { return servers_; }
  [[nodiscard]] int busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Waiting jobs dropped by clear_queue().
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

  /// Integral of busy servers over time (server·µs).  Utilization over a
  /// window [t0, t1] with capacity k is
  ///   (busy_integral(t1) - busy_integral(t0)) / (k * (t1 - t0)).
  [[nodiscard]] std::int64_t busy_integral() const;

  /// Convenience: utilization in [0, 1+] since the given reference point
  /// (pass a snapshot of busy_integral() and the snapshot time).
  [[nodiscard]] double utilization_since(std::int64_t integral_at_t0,
                                         common::SimTime t0) const;

  /// Integral of waiting-line length over time (job·µs), for mean queue
  /// length readings.
  [[nodiscard]] std::int64_t queue_integral() const;

  /// Drops all waiting jobs (in-service jobs finish).  Used when a node is
  /// drained for reconfiguration.  Returns the number of dropped jobs.
  std::size_t clear_queue();

 private:
  struct Job {
    common::SimTime demand = common::SimTime::zero();
    Completion on_complete;
  };

  /// Folds elapsed time into the busy/queue integrals.
  void account_now();
  /// Starts queued jobs while servers are available.
  void start_pending();
  /// Starts one job; its completion rides in the service event's closure.
  void start_service(common::SimTime demand, Completion on_complete);
  void on_service_done(Completion on_complete);

  Simulator& sim_;
  std::string name_;
  const int servers_;
  double slowdown_ = 1.0;

  int busy_ = 0;
  common::RingBuffer<Job> queue_;

  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;

  mutable std::int64_t busy_integral_ = 0;
  mutable std::int64_t queue_integral_ = 0;
  mutable common::SimTime last_account_ = common::SimTime::zero();
};

}  // namespace ah::sim
