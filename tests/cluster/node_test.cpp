#include "cluster/node.hpp"

#include <gtest/gtest.h>

namespace ah::cluster {
namespace {

using common::SimTime;

class NodeTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(NodeTest, ResourcesMatchHardware) {
  Node node(sim_, 0, "n0");
  EXPECT_EQ(node.cpu().servers(), Node::kCpuCores);
  EXPECT_EQ(Node::kCpuCores, 2);  // the testbed's dual Athlon
  EXPECT_EQ(node.disk().servers(), 1);
  EXPECT_EQ(node.nic().busy_until(), SimTime::zero());  // an idle link
  EXPECT_EQ(node.id(), 0u);
  EXPECT_EQ(node.name(), "n0");
}

TEST_F(NodeTest, DiskTimeHasSeekFloor) {
  Node node(sim_, 0, "n0");
  const auto t0 = node.disk_time(0);
  EXPECT_NEAR(t0.as_seconds(), Node::kDiskSeekS, 1e-9);
  // Transfer adds on top of the seek.
  const auto t1 = node.disk_time(35'000'000);  // 1s at 35 MB/s
  EXPECT_NEAR(t1.as_seconds(), Node::kDiskSeekS + 1.0, 1e-6);
}

TEST_F(NodeTest, NicTimeScalesWithBytes) {
  Node node(sim_, 0, "n0");
  // 100 Mbps: 12'500'000 bytes per second.
  const auto t = node.nic_time(12'500'000);
  EXPECT_NEAR(t.as_seconds(), 1.0, 1e-6);
  EXPECT_EQ(node.nic_time(0), SimTime::zero());
}

TEST_F(NodeTest, MemoryAccounting) {
  Node node(sim_, 0, "n0");
  EXPECT_EQ(node.memory_used(), 0);
  node.alloc_memory(100);
  node.alloc_memory(50);
  EXPECT_EQ(node.memory_used(), 150);
  node.free_memory(100);
  EXPECT_EQ(node.memory_used(), 50);
}

TEST_F(NodeTest, FreeBelowZeroClamps) {
  Node node(sim_, 0, "n0");
  node.alloc_memory(10);
  node.free_memory(100);
  EXPECT_EQ(node.memory_used(), 0);
}

TEST_F(NodeTest, MemoryPressureFraction) {
  Node node(sim_, 0, "n0");
  EXPECT_EQ(Node::kMemory, 1024LL * 1024 * 1024);  // 1 GiB
  node.alloc_memory(Node::kMemory / 2);
  EXPECT_DOUBLE_EQ(node.memory_pressure(), 0.5);
  node.alloc_memory(Node::kMemory * 3 / 2);
  EXPECT_DOUBLE_EQ(node.memory_pressure(), 2.0);  // overcommit allowed
}

TEST_F(NodeTest, NoPagingSlowdownBelowThreshold) {
  Node node(sim_, 0, "n0");
  node.alloc_memory(Node::kMemory / 10 * 9);  // 90% < 95% threshold
  SimTime done = SimTime::zero();
  node.cpu().submit(SimTime::millis(10), [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done, SimTime::millis(10));
}

TEST_F(NodeTest, PagingSlowsCpuWhenOvercommitted) {
  Node node(sim_, 0, "n0");
  node.alloc_memory(2 * Node::kMemory);  // 200% pressure
  SimTime done = SimTime::zero();
  node.cpu().submit(SimTime::millis(10), [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_GT(done, SimTime::millis(10));
}

TEST_F(NodeTest, PagingRecoversAfterFree) {
  Node node(sim_, 0, "n0");
  node.alloc_memory(2 * Node::kMemory);
  node.free_memory(Node::kMemory * 3 / 2);
  SimTime done = SimTime::zero();
  node.cpu().submit(SimTime::millis(10), [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done, SimTime::millis(10));
}

TEST_F(NodeTest, UtilizationProbesDeltaBased) {
  Node node(sim_, 0, "n0");
  // Saturate both CPU cores for 10ms, then idle 10ms.
  node.cpu().submit(SimTime::millis(10), {});
  node.cpu().submit(SimTime::millis(10), {});
  sim_.run_until(SimTime::millis(10));
  EXPECT_NEAR(node.cpu_utilization_probe(), 1.0, 1e-9);
  sim_.run_until(SimTime::millis(20));
  EXPECT_NEAR(node.cpu_utilization_probe(), 0.0, 1e-9);
}

TEST_F(NodeTest, DiskAndNicProbes) {
  Node node(sim_, 0, "n0");
  node.disk().submit(SimTime::millis(5), {});
  node.nic().send_lost(SimTime::millis(2));
  sim_.run_until(SimTime::millis(10));
  EXPECT_NEAR(node.disk_utilization_probe(), 0.5, 1e-9);
  EXPECT_NEAR(node.nic_utilization_probe(), 0.2, 1e-9);
}

}  // namespace
}  // namespace ah::cluster
