#include "core/model_immutable.hpp"

#include <stdexcept>
#include <utility>

#include "common/analysis.hpp"
#include "tpcw/workload.hpp"

AH_IMMUTABLE_STATE_FILE;

namespace ah::core {

ModelImmutable::ModelImmutable(
    SystemModel::Config topology, Experiment::Config experiment,
    std::shared_ptr<const tpcw::ZipfSampler> popularity)
    : topology_(std::move(topology)),
      experiment_(std::move(experiment)),
      popularity_(std::move(popularity)),
      defaults_(webstack::default_values()) {
  if (popularity_ == nullptr) {
    throw std::invalid_argument("ModelImmutable: popularity table is null");
  }
  // The immutable layer must not point at itself: a self-referential
  // shared_ptr would leak the whole object graph.
  topology_.shared.reset();
}

std::size_t ModelImmutable::node_count() const {
  std::size_t total = 0;
  for (const SystemModel::LineSpec& spec : topology_.lines) {
    total += static_cast<std::size_t>(spec.proxy_nodes) +
             static_cast<std::size_t>(spec.app_nodes) +
             static_cast<std::size_t>(spec.db_nodes);
  }
  return total;
}

std::shared_ptr<const ModelImmutable> make_model_immutable(
    const SystemModel::Config& topology,
    const Experiment::Config& experiment) {
  // The popularity table is a function of the item scale and the standard
  // Zipf exponent alone — the same inputs Workload would use to build its
  // private copy, so sharing it is bit-identical.
  const tpcw::Workload::Config workload_defaults{};
  return std::make_shared<const ModelImmutable>(
      topology, experiment,
      std::make_shared<const tpcw::ZipfSampler>(experiment.item_count,
                                                workload_defaults.zipf_alpha));
}

}  // namespace ah::core
