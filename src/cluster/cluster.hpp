// Cluster topology: owns nodes and their tier assignment.
//
// Reconfiguration (paper Section IV) moves a node between tiers; the Cluster
// records membership only, and core::SystemModel stops and starts the
// node's server roles around the move.  The Cluster itself is policy-free —
// deciding *which* node to move is the Harmony reconfiguration algorithm's
// job.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/tier.hpp"
#include "common/analysis.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

class Cluster {
 public:
  Cluster() = default;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates a node whose hardware runs on `sim` and assigns it to `tier`.
  /// Returns its id.  The Cluster holds membership only (ids, tiers); each
  /// work line of a core::SystemModel places its nodes on its own timeline.
  NodeId add_node(sim::Simulator& sim, TierKind tier);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;

  [[nodiscard]] Tier& tier(TierKind kind) { return tiers_[tier_index(kind)]; }
  [[nodiscard]] const Tier& tier(TierKind kind) const {
    return tiers_[tier_index(kind)];
  }

  /// Tier a node currently belongs to.
  [[nodiscard]] TierKind tier_of(NodeId id) const;

  /// Members of a tier whose node is marked up (cluster::HealthChecker's
  /// view).  The reconfiguration controller treats this — not
  /// Tier::size() — as the tier's usable capacity.
  [[nodiscard]] std::size_t healthy_count(TierKind kind) const;

  /// Moves `id` to `to`.  Precondition: the source tier keeps >= 1 member
  /// (the paper's step-4(b) safety rule); violating it throws
  /// std::logic_error.
  void move_node(NodeId id, TierKind to);

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<TierKind> node_tier_;
  std::array<Tier, kTierCount> tiers_{
      Tier{TierKind::kProxy}, Tier{TierKind::kApp}, Tier{TierKind::kDb}};
};

}  // namespace ah::cluster
