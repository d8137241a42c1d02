#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ah::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Cluster cluster_;
};

TEST_F(ClusterTest, AddNodeAssignsSequentialIds) {
  EXPECT_EQ(cluster_.add_node(sim_, TierKind::kProxy), 0u);
  EXPECT_EQ(cluster_.add_node(sim_, TierKind::kApp), 1u);
  EXPECT_EQ(cluster_.node_count(), 2u);
}

TEST_F(ClusterTest, TierMembershipRecorded) {
  const auto p = cluster_.add_node(sim_, TierKind::kProxy);
  const auto a = cluster_.add_node(sim_, TierKind::kApp);
  const auto d = cluster_.add_node(sim_, TierKind::kDb);
  EXPECT_EQ(cluster_.tier_of(p), TierKind::kProxy);
  EXPECT_EQ(cluster_.tier_of(a), TierKind::kApp);
  EXPECT_EQ(cluster_.tier_of(d), TierKind::kDb);
  EXPECT_TRUE(cluster_.tier(TierKind::kProxy).contains(p));
}

TEST_F(ClusterTest, MoveNodeUpdatesMembership) {
  const auto p1 = cluster_.add_node(sim_, TierKind::kProxy);
  cluster_.add_node(sim_, TierKind::kProxy);
  cluster_.add_node(sim_, TierKind::kApp);
  cluster_.move_node(p1, TierKind::kApp);
  EXPECT_EQ(cluster_.tier_of(p1), TierKind::kApp);
  EXPECT_EQ(cluster_.tier(TierKind::kProxy).size(), 1u);
  EXPECT_EQ(cluster_.tier(TierKind::kApp).size(), 2u);
}

TEST_F(ClusterTest, MoveLastNodeThrows) {
  const auto p = cluster_.add_node(sim_, TierKind::kProxy);
  cluster_.add_node(sim_, TierKind::kApp);
  EXPECT_THROW(cluster_.move_node(p, TierKind::kApp), std::logic_error);
}

TEST_F(ClusterTest, MoveToSameTierIsNoop) {
  // A one-member tier: a real move out of it would throw.
  const auto p = cluster_.add_node(sim_, TierKind::kProxy);
  const auto a = cluster_.add_node(sim_, TierKind::kApp);
  cluster_.move_node(p, TierKind::kProxy);
  EXPECT_EQ(cluster_.tier_of(p), TierKind::kProxy);
  EXPECT_EQ(cluster_.tier(TierKind::kProxy).members(),
            std::vector<NodeId>{p});
  EXPECT_EQ(cluster_.tier(TierKind::kApp).members(), std::vector<NodeId>{a});
}

TEST_F(ClusterTest, NodeAccessOutOfRangeThrows) {
  EXPECT_THROW(static_cast<void>(cluster_.node(0)), std::out_of_range);
}

TEST_F(ClusterTest, NodesGetDistinctNames) {
  const auto a = cluster_.add_node(sim_, TierKind::kProxy);
  const auto b = cluster_.add_node(sim_, TierKind::kProxy);
  EXPECT_NE(cluster_.node(a).name(), cluster_.node(b).name());
}

}  // namespace
}  // namespace ah::cluster
