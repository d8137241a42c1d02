#include "cluster/cluster.hpp"

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

std::vector<Node*> Cluster::nodes_in(TierKind kind) {
  std::vector<Node*> result;
  for (NodeId id : tier(kind).members()) result.push_back(&node(id));
  return result;
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
  if (move_observer_) move_observer_(id, from, to);
}

}  // namespace ah::cluster
