// The shared read-only layer of a simulated deployment: the Zipf item
// popularity table.
//
// It is the one large table a model would otherwise build per experiment
// (~120 KB at the TPC-W 10k item scale); the other read-only tables — the
// interaction profiles, the mixes, the parameter catalogue — are
// process-wide constants already.  make_model_immutable builds it once and
// SystemModel::Config::shared hands it to every model built from the same
// options and to every line of each; a const table is safely readable from
// any number of work-line threads without synchronisation
// (tpcw::ZipfSampler sampling is const).  Enforcement is lint-backed: files
// marked AH_IMMUTABLE_STATE_FILE must not define non-const statics or
// mutable members (ah_lint rule `shared_state`).
#pragma once

#include <memory>

#include "common/analysis.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "tpcw/zipf.hpp"

AH_IMMUTABLE_STATE_FILE;

namespace ah::core {

/// Builds the popularity table for `experiment`'s item count and the
/// standard TPC-W Zipf exponent.  The table does not depend on `topology`.
[[nodiscard]] std::shared_ptr<const tpcw::ZipfSampler> make_model_immutable(
    const SystemModel::Config& topology, const Experiment::Config& experiment);

}  // namespace ah::core
