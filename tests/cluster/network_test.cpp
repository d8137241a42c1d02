#include "cluster/network.hpp"

#include <gtest/gtest.h>

namespace ah::cluster {
namespace {

using common::SimTime;

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Network net_{sim_};
};

TEST_F(NetworkTest, DeliveryAfterSerializationPlusLatency) {
  Node a(sim_, 0, "a");
  Node b(sim_, 1, "b");
  SimTime delivered = SimTime::zero();
  // 12'500 bytes at 100 Mbps = 1 ms serialization; +200 us latency.
  net_.send(a, b, 12'500, [&] { delivered = sim_.now(); });
  sim_.run();
  EXPECT_EQ(delivered, SimTime::micros(1200));
}

TEST_F(NetworkTest, SenderNicCharged) {
  Node a(sim_, 0, "a");
  Node b(sim_, 1, "b");
  net_.send(a, b, 12'500, [] {});
  sim_.run();
  EXPECT_EQ(a.nic().messages(), 1u);
  EXPECT_EQ(a.nic().busy_integral(), 1000);  // 1 ms of serialization
  EXPECT_EQ(b.nic().messages(), 0u);
  EXPECT_EQ(b.nic().busy_integral(), 0);
}

TEST_F(NetworkTest, LoopbackIsFree) {
  Node a(sim_, 0, "a");
  SimTime delivered = SimTime::millis(99);
  net_.send(a, a, 1'000'000, [&] { delivered = sim_.now(); });
  sim_.run();
  EXPECT_EQ(delivered, SimTime::zero());
  EXPECT_EQ(a.nic().messages(), 0u);
  EXPECT_EQ(a.nic().busy_integral(), 0);
}

TEST_F(NetworkTest, ConcurrentSendsSerializeOnNic) {
  Node a(sim_, 0, "a");
  Node b(sim_, 1, "b");
  SimTime first = SimTime::zero();
  SimTime second = SimTime::zero();
  net_.send(a, b, 12'500, [&] { first = sim_.now(); });
  net_.send(a, b, 12'500, [&] { second = sim_.now(); });
  sim_.run();
  EXPECT_EQ(first, SimTime::micros(1200));
  // Second message waits for the NIC: 2 ms serialization total.
  EXPECT_EQ(second, SimTime::micros(2200));
}

TEST_F(NetworkTest, SlowdownScalesDeliveries) {
  Node a(sim_, 0, "a");
  Node b(sim_, 1, "b");
  // A fail-slow node's CPU slows down; nothing slows its NIC.
  a.set_fault_slowdown(2.0);
  SimTime first = SimTime::zero();
  SimTime second = SimTime::zero();
  net_.send(a, b, 12'500, [&] { first = sim_.now(); });
  net_.send(a, b, 12'500, [&] { second = sim_.now(); });
  sim_.run();
  // Each 1 ms demand serves for 1 ms, back to back.
  EXPECT_EQ(first, SimTime::micros(1200));
  EXPECT_EQ(second, SimTime::micros(2200));
}

TEST_F(NetworkTest, DroppedMessageStillChargesNic) {
  Node a(sim_, 0, "a");
  Node b(sim_, 1, "b");
  Node c(sim_, 2, "c");
  net_.set_link_fault(a.id(), c.id(), /*drop=*/1.0, SimTime::zero());
  std::vector<std::pair<int, SimTime>> delivered;
  net_.send(a, b, 12'500, [&] { delivered.push_back({1, sim_.now()}); });
  // Dropped, but its serialization still queues on the NIC.
  EXPECT_FALSE(net_.send(a, c, 12'500,
                         [&] { delivered.push_back({2, sim_.now()}); }));
  net_.send(a, b, 12'500, [&] { delivered.push_back({3, sim_.now()}); });
  sim_.run();
  EXPECT_EQ(net_.messages_dropped(), 1u);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (std::pair<int, SimTime>{1, SimTime::micros(1200)}));
  // The dropped frame occupied the wire for 1-2 ms.
  EXPECT_EQ(delivered[1], (std::pair<int, SimTime>{3, SimTime::micros(3200)}));
  EXPECT_EQ(a.nic().messages(), 3u);
  EXPECT_EQ(a.nic().busy_integral(), 3000);
}

TEST_F(NetworkTest, CountsTraffic) {
  Node a(sim_, 0, "a");
  Node b(sim_, 1, "b");
  net_.send(a, b, 100, [] {});
  net_.send(b, a, 200, [] {});
  sim_.run();
  EXPECT_EQ(net_.messages_sent(), 2u);
  EXPECT_EQ(net_.bytes_sent(), 300);
}

}  // namespace
}  // namespace ah::cluster
