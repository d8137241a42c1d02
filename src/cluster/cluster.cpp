#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/analysis.hpp"
#include "common/fmt.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

NodeId Cluster::add_node(sim::Simulator& sim, const NodeHardware& hw,
                         TierKind tier_kind) {
  const auto id = static_cast<NodeId>(nodes_.size());
  AH_LINT_ALLOW(hot_path_alloc, "topology construction: add_node runs at cluster build time only");
  nodes_.push_back(std::make_unique<Node>(
      sim, id, common::format("node{}", id), hw));
  node_tier_.push_back(tier_kind);
  tiers_[tier_index(tier_kind)].add(id);
  return id;
}

Node& Cluster::node(NodeId id) { return *nodes_.at(id); }

const Node& Cluster::node(NodeId id) const { return *nodes_.at(id); }

TierKind Cluster::tier_of(NodeId id) const { return node_tier_.at(id); }

std::size_t Cluster::healthy_count(TierKind kind) const {
  const std::vector<NodeId>& members = tier(kind).members();
  return static_cast<std::size_t>(
      std::count_if(members.begin(), members.end(),
                    [this](NodeId id) { return node(id).marked_up(); }));
}

void Cluster::move_node(NodeId id, TierKind to) {
  const TierKind from = tier_of(id);
  if (from == to) return;
  if (tier(from).size() <= 1) {
    throw std::logic_error(common::format(
        "move_node: tier '{}' would become empty", tier_name(from)));
  }
  tier(from).remove(id);
  tier(to).add(id);
  node_tier_.at(id) = to;
}

}  // namespace ah::cluster
