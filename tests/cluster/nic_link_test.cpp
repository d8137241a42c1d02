#include "cluster/nic_link.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/resource.hpp"

namespace ah::cluster {
namespace {

using common::SimTime;

constexpr SimTime kLatency = SimTime::micros(200);

TEST(NicLinkTest, OneEventPerMessageAfterQueueServiceAndLatency) {
  sim::Simulator sim;
  NicLink link(sim);
  std::vector<SimTime> at;
  link.send(SimTime::millis(1), kLatency, [&] { at.push_back(sim.now()); });
  link.send(SimTime::millis(2), kLatency, [&] { at.push_back(sim.now()); });
  EXPECT_EQ(link.busy_until(), SimTime::millis(3));
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(at, (std::vector<SimTime>{SimTime::micros(1200),
                                      SimTime::micros(3200)}));
  EXPECT_EQ(link.messages(), 2u);
  EXPECT_EQ(link.busy_integral(), 3000);
}

TEST(NicLinkTest, LostMessageOccupiesTheLinkAndSchedulesNothing) {
  sim::Simulator sim;
  NicLink link(sim);
  link.send_lost(SimTime::millis(1));
  EXPECT_EQ(sim.pending_events(), 0u);
  SimTime delivered = SimTime::zero();
  link.send(SimTime::millis(1), kLatency, [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, SimTime::micros(2200));
  EXPECT_EQ(link.busy_integral(), 2000);
}

TEST(NicLinkTest, CrashDropsWaitingMessagesAndRollsBackBusyUntil) {
  sim::Simulator sim;
  NicLink link(sim);
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    link.send(SimTime::millis(1), kLatency, [&] { ++delivered; });
  }
  link.send_lost(SimTime::millis(1));
  sim.run_until(SimTime::micros(1500));  // the second message is in service
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.drop_waiting(), 2u);  // the third and the lost one
  EXPECT_EQ(link.busy_until(), SimTime::millis(2));
  EXPECT_EQ(sim.pending_events(), 1u);  // the second's delivery
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.busy_integral(), 2000);
}

TEST(NicLinkTest, MessageStartingAtTheCrashInstantIsInService) {
  sim::Simulator sim;
  NicLink link(sim);
  int delivered = 0;
  link.send(SimTime::millis(1), kLatency, [&] { ++delivered; });
  link.send(SimTime::millis(1), kLatency, [&] { ++delivered; });
  sim.run_until(SimTime::millis(1));  // the second starts now
  EXPECT_EQ(link.drop_waiting(), 0u);
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.busy_integral(), 2000);
}

/// A link and the one-server sim::Resource it replaces, driven side by side
/// on one timeline.  The resource records when each message's service
/// ends; the link records its delivery less the latency.
struct Pair {
  static constexpr SimTime kNever = SimTime::micros(-1);

  explicit Pair(int messages)
      : link(sim),
        oracle(sim, "oracle", sim::Resource::Config{1}),
        link_end(static_cast<std::size_t>(messages), kNever),
        oracle_end(static_cast<std::size_t>(messages), kNever) {}

  void send(int i, SimTime service, bool lost) {
    const auto n = static_cast<std::size_t>(i);
    if (lost) {
      link.send_lost(service);
      oracle.submit(service, {});
      return;
    }
    link.send(service, kLatency,
              [this, n] { link_end[n] = sim.now() - kLatency; });
    oracle.submit(service, [this, n] { oracle_end[n] = sim.now(); });
  }

  void crash() {
    const std::size_t link_dropped = link.drop_waiting();
    EXPECT_EQ(link_dropped, oracle.clear_queue())
        << "at " << sim.now().as_micros();
    dropped += link_dropped;
  }

  sim::Simulator sim;
  NicLink link;
  sim::Resource oracle;
  std::vector<SimTime> link_end;
  std::vector<SimTime> oracle_end;
  std::size_t dropped = 0;
};

TEST(NicLinkTest, MatchesOneServerResourceOnSeededSendsLossesAndCrashes) {
  constexpr int kMessages = 400;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Pair pair(kMessages);
    common::Rng rng(seed);
    // Every instant sits on a 100 µs grid, so sends, service ends, crashes
    // and probes often coincide.  Sends: gaps of 0–1.2 ms against services
    // of 0.1–2 ms, so the link alternates between idle and a queue; one
    // message in five is lost at send.
    const auto grid = [&rng](std::int64_t lo, std::int64_t hi) {
      return SimTime::micros(100 * rng.uniform_int(lo, hi));
    };
    SimTime at = SimTime::zero();
    for (int i = 0; i < kMessages; ++i) {
      at += grid(0, 12);
      const SimTime service = grid(1, 20);
      const bool lost = rng.uniform() < 0.2;
      pair.sim.schedule_at(at, [p = &pair, i, service, lost] {
        p->send(i, service, lost);
      });
    }
    const std::int64_t horizon = at.as_micros() / 100;
    // Crashes run after every event already due at their instant (a
    // zero-delay hop from a trigger), so a service that ends there has
    // started the next message, which the link counts as in service.
    for (int c = 0; c < 8; ++c) {
      pair.sim.schedule_at(grid(0, horizon), [p = &pair] {
        p->sim.schedule(SimTime::zero(), [p] { p->crash(); });
      });
    }
    // Probes compare the busy integrals that feed NIC utilization.
    for (int k = 0; k < 50; ++k) {
      const SimTime probe_at = grid(0, horizon);
      pair.sim.schedule_at(probe_at, [p = &pair] {
        EXPECT_EQ(p->link.busy_integral(), p->oracle.busy_integral())
            << "at " << p->sim.now().as_micros();
      });
    }
    pair.sim.run();
    EXPECT_EQ(pair.link_end, pair.oracle_end);
    EXPECT_EQ(pair.link.busy_integral(), pair.oracle.busy_integral());
    EXPECT_EQ(pair.dropped, pair.oracle.rejected());
    EXPECT_GT(pair.dropped, 0u);
  }
}

}  // namespace
}  // namespace ah::cluster
