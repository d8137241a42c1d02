// ModelImmutable: the shared read-only layer of a simulated deployment.
//
// A SystemModel splits into two kinds of state.  The immutable layer —
// TPC-W interaction tables, think-time/mix distributions, the Zipf item
// popularity CDF, the 23-entry parameter catalogue metadata, NodeHardware
// profiles and the topology/experiment Configs themselves — is identical
// for every model built from one topology and for every work line inside
// one model.  The mutable layer (event queues, pools, routers, RNG streams,
// histograms) is small and strictly per-model / per-line.
//
// This class captures the immutable layer once and hands it out by
// std::shared_ptr<const ModelImmutable>: models built from the same options
// share one copy instead of duplicating it (the popularity table alone is
// ~120 KB at the TPC-W 10k item scale), and a const object is safely
// readable from any number of work-line threads without synchronisation.
// Enforcement is structural (everything here is reached through const
// accessors) and lint-backed: files marked AH_IMMUTABLE_STATE_FILE must not
// define non-const statics or mutable members (ah_lint rule
// `shared_state`).
#pragma once

#include <cstdint>
#include <memory>

#include "common/analysis.hpp"
#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "harmony/parameter.hpp"
#include "tpcw/mix.hpp"
#include "tpcw/zipf.hpp"
#include "webstack/params.hpp"

AH_IMMUTABLE_STATE_FILE;

namespace ah::core {

class ModelImmutable {
 public:
  /// Prefer make_model_immutable(); the constructor is public so tests can
  /// build odd variants directly.  `popularity` must be non-null.
  ModelImmutable(SystemModel::Config topology, Experiment::Config experiment,
                 std::shared_ptr<const tpcw::ZipfSampler> popularity);

  ModelImmutable(const ModelImmutable&) = delete;
  ModelImmutable& operator=(const ModelImmutable&) = delete;

  /// The topology every sharing model is built from.  Its `shared` field is
  /// cleared (the immutable layer does not point at itself).
  [[nodiscard]] const SystemModel::Config& topology() const {
    return topology_;
  }
  [[nodiscard]] const Experiment::Config& experiment() const {
    return experiment_;
  }
  [[nodiscard]] const cluster::NodeHardware& hardware() const {
    return topology_.hardware;
  }

  [[nodiscard]] std::size_t line_count() const {
    return topology_.lines.size();
  }
  /// Total nodes a SystemModel built from topology() will create.
  [[nodiscard]] std::size_t node_count() const;

  /// Zipf item-popularity table shared by every line of every sharing
  /// model (tpcw::ZipfSampler sampling is const and thread-safe).
  [[nodiscard]] const tpcw::ZipfSampler& popularity() const {
    return *popularity_;
  }
  [[nodiscard]] std::shared_ptr<const tpcw::ZipfSampler> popularity_ptr()
      const {
    return popularity_;
  }

  /// The 23-entry parameter catalogue (process-wide immutable table).
  [[nodiscard]] const std::vector<webstack::ParamSpec>& catalogue() const {
    return webstack::parameter_catalogue();
  }
  /// Catalogue default values, computed once instead of per caller.
  [[nodiscard]] const harmony::PointI& catalogue_defaults() const {
    return defaults_;
  }
  /// Standard TPC-W mix for `kind` (process-wide immutable table).
  [[nodiscard]] const tpcw::Mix& mix(tpcw::WorkloadKind kind) const {
    return tpcw::Mix::standard(kind);
  }

 private:
  SystemModel::Config topology_;
  Experiment::Config experiment_;
  std::shared_ptr<const tpcw::ZipfSampler> popularity_;
  harmony::PointI defaults_;
};

/// Builds the immutable layer for (topology, experiment), deriving the
/// popularity table from the experiment's item count and the standard
/// TPC-W Zipf exponent.
[[nodiscard]] std::shared_ptr<const ModelImmutable> make_model_immutable(
    const SystemModel::Config& topology, const Experiment::Config& experiment);

}  // namespace ah::core
