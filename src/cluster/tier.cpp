#include "cluster/tier.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "common/analysis.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

bool Tier::contains(NodeId id) const {
  return std::find(members_.begin(), members_.end(), id) != members_.end();
}

void Tier::add(NodeId id) {
  assert(!contains(id));
  members_.push_back(id);
}

bool Tier::remove(NodeId id) {
  const auto it = std::find(members_.begin(), members_.end(), id);
  if (it == members_.end()) return false;
  members_.erase(it);
  return true;
}

}  // namespace ah::cluster
