#include "core/parallel_evaluator.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "core/model_immutable.hpp"

namespace ah::core {

namespace {
// Salt replica seed streams away from the per-line streams Experiment and
// SystemModel derive internally (those use mix_seed(seed, small_index)).
constexpr std::uint64_t kReplicaSalt = 0x7265706c69636173ULL;  // "replicas"
}  // namespace

std::uint64_t ParallelEvaluator::replica_seed(std::uint64_t base,
                                              std::size_t replica) {
  return common::mix_seed(common::mix_seed(base, kReplicaSalt), replica);
}

ParallelEvaluator::ParallelEvaluator(common::ThreadPool& pool,
                                     Options options)
    : pool_(pool), options_(std::move(options)) {
  if (options_.replicas == 0) {
    throw std::invalid_argument("ParallelEvaluator: replicas must be >= 1");
  }
  // All k replicas share one immutable layer (popularity CDF, catalogue
  // defaults, topology) — build it here if the caller did not supply one.
  if (options_.topology.shared == nullptr) {
    options_.topology.shared =
        make_model_immutable(options_.topology, options_.experiment);
  }
  replicas_.reserve(options_.replicas);
  for (std::size_t r = 0; r < options_.replicas; ++r) {
    Replica replica;
    SystemModel::Config topology = options_.topology;
    topology.seed = replica_seed(options_.topology.seed, r);
    replica.system = std::make_unique<SystemModel>(topology);
    Experiment::Config experiment = options_.experiment;
    experiment.seed = replica_seed(options_.experiment.seed, r);
    replica.experiment =
        std::make_unique<Experiment>(*replica.system, experiment);
    replicas_.push_back(std::move(replica));
  }
}

std::vector<IterationResult> ParallelEvaluator::evaluate(
    std::span<const harmony::PointI> candidates, const ApplyFn& apply) {
  std::vector<IterationResult> results(candidates.size());
  const std::size_t k = replicas_.size();
  const std::size_t active = std::min(k, candidates.size());
  // One pool task per replica; a replica walks its assigned candidates in
  // batch order on its own timeline.  No two tasks touch the same replica
  // or the same results slot, so no synchronisation is needed beyond the
  // parallel_for barrier.
  pool_.parallel_for(active, [&](std::size_t r) {
    Replica& replica = replicas_[r];
    for (std::size_t i = r; i < candidates.size(); i += k) {
      apply(*replica.system, candidates[i]);
      results[i] = replica.experiment->run_iteration();
      if (results[i].disturbed) {
        // A fault or health transition overlapped the window, so the WIPS
        // figure measured the disturbance, not the candidate.  Re-measure
        // once on the same timeline (the retry is part of the replica's
        // deterministic schedule, so results stay thread-count-invariant);
        // if the second window is disturbed too the fault is chronic and
        // the reading is surrendered as-is, still flagged.
        discarded_.fetch_add(1, std::memory_order_relaxed);
        results[i] = replica.experiment->run_iteration();
      }
    }
  });
  evaluations_ += candidates.size();
  return results;
}

}  // namespace ah::core
