#include "core/model_immutable.hpp"

#include "common/analysis.hpp"
#include "tpcw/workload.hpp"

AH_IMMUTABLE_STATE_FILE;

namespace ah::core {

std::shared_ptr<const tpcw::ZipfSampler> make_model_immutable(
    const SystemModel::Config& /*topology*/,
    const Experiment::Config& experiment) {
  // The same inputs Workload would use to build its private copy, so
  // sharing the table is bit-identical.
  return std::make_shared<const tpcw::ZipfSampler>(
      experiment.item_count, tpcw::Workload::kZipfAlpha);
}

}  // namespace ah::core
