// Tier taxonomy and membership.
//
// The paper's three-tier architecture: proxy (presentation), application
// (middleware), database (backend).  A Tier is an ordered set of node ids;
// ordering matters because the load balancer's round-robin and the
// "representative node" of the parameter-duplication strategy both refer to
// positions within the tier.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "cluster/node.hpp"
#include "common/analysis.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

enum class TierKind : int { kProxy = 0, kApp = 1, kDb = 2 };

inline constexpr std::size_t kTierCount = 3;

[[nodiscard]] constexpr std::string_view tier_name(TierKind kind) {
  switch (kind) {
    case TierKind::kProxy: return "proxy";
    case TierKind::kApp:   return "app";
    case TierKind::kDb:    return "db";
  }
  return "?";
}

[[nodiscard]] constexpr std::size_t tier_index(TierKind kind) {
  return static_cast<std::size_t>(kind);
}

class Tier {
 public:
  explicit Tier(TierKind kind) : kind_(kind) {}

  [[nodiscard]] TierKind kind() const { return kind_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }

  [[nodiscard]] bool contains(NodeId id) const;

  /// Appends a node.  Precondition: not already a member.
  void add(NodeId id);

  /// Removes a node.  Returns false when it was not a member.
  bool remove(NodeId id);

 private:
  TierKind kind_;
  std::vector<NodeId> members_;
};

}  // namespace ah::cluster
