// ParallelEvaluator: a replica-set engine for concurrent candidate
// evaluation.
//
// The paper's simplex exploration evaluates n+1 independent configurations
// and the partitioning strategy tunes independent work lines — all of these
// are independent measurements, so they can run concurrently.  One Simulator
// owns one virtual timeline and is strictly single-threaded, so parallelism
// comes from *replicas*: k independent (SystemModel, Experiment) pairs, each
// model owning its work lines' timelines, built from the same configs with
// deterministic per-replica seeds.
//
// Candidate i of a batch always runs on replica i % k, and each replica
// evaluates its assigned candidates in ascending batch order on its own
// timeline.  Both facts depend only on (i, k) — never on the thread count —
// so a batch's results are bit-identical whether the pool has 1, 4, or 64
// threads.  Thread count buys wall-clock speed; replica count fixes the
// measurement semantics.
//
// Measurement-semantics caveat (documented in EXPERIMENTS.md): the paper
// measures every candidate back-to-back on ONE live system, so iteration
// state (warm caches, in-flight sessions) carries over between candidates.
// A replica set intentionally trades that for independence: each replica's
// state evolves only with the candidates it was assigned.  Results are
// statistically equivalent but not bit-identical to the sequential
// protocol, which is why TuningDriver keeps `threads == 1` on the
// sequential single-system path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "harmony/parameter.hpp"

namespace ah::core {

class ParallelEvaluator {
 public:
  struct Options {
    /// Topology every replica is built from (seed is re-salted per replica).
    SystemModel::Config topology{};
    /// Workload/measurement protocol per replica (seed re-salted as well).
    Experiment::Config experiment{};
    /// Number of independent replica timelines (k).  Fixed per evaluator;
    /// results depend on this, never on the pool's thread count.
    std::size_t replicas = 4;
  };

  /// Applies one candidate configuration to a replica's system.  Invoked
  /// concurrently on *different* SystemModels, so it must not touch shared
  /// mutable state.
  using ApplyFn =
      std::function<void(SystemModel&, const harmony::PointI&)>;

  /// Builds the k replicas eagerly.  The pool is borrowed (shared across
  /// evaluators and with any caller-level fan-out) and must outlive this.
  ParallelEvaluator(common::ThreadPool& pool, Options options);

  ParallelEvaluator(const ParallelEvaluator&) = delete;
  ParallelEvaluator& operator=(const ParallelEvaluator&) = delete;

  /// Evaluates a batch: candidate i is applied to replica i % k via
  /// `apply`, one measurement iteration runs on that replica's timeline,
  /// and results come back in candidate order.  Deterministic for a given
  /// (options, batch history) regardless of pool size.
  std::vector<IterationResult> evaluate(
      std::span<const harmony::PointI> candidates, const ApplyFn& apply);

  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  /// Total candidates evaluated across all batches.
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }
  /// Measurement windows discarded (and re-run once) because a fault event
  /// or health transition overlapped them.  Atomic: replicas on different
  /// pool threads discard independently.
  [[nodiscard]] std::uint64_t discarded_windows() const {
    return discarded_.load(std::memory_order_relaxed);
  }
  /// Direct replica access (tests, bespoke drivers).
  [[nodiscard]] SystemModel& replica_system(std::size_t r) {
    return *replicas_.at(r).system;
  }
  [[nodiscard]] Experiment& replica_experiment(std::size_t r) {
    return *replicas_.at(r).experiment;
  }

  /// Seed used by replica r for a base seed (deterministic salt).
  [[nodiscard]] static std::uint64_t replica_seed(std::uint64_t base,
                                                  std::size_t replica);

 private:
  struct Replica {
    std::unique_ptr<SystemModel> system;
    std::unique_ptr<Experiment> experiment;
  };

  common::ThreadPool& pool_;
  Options options_;
  std::vector<Replica> replicas_;
  std::size_t evaluations_ = 0;
  std::atomic<std::uint64_t> discarded_{0};
};

}  // namespace ah::core
