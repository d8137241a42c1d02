#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace ah::sim {
namespace {

using common::SimTime;

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(30), [&] { order.push_back(3); });
  q.push(SimTime::millis(10), [&] { order.push_back(1); });
  q.push(SimTime::millis(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.push(SimTime::millis(7), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(SimTime::millis(5), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(SimTime::millis(1), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceIsNoop) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueueTest, CancelMiddleEventSkipsIt) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(1), [&] { order.push_back(1); });
  const EventId mid = q.push(SimTime::millis(2), [&] { order.push_back(2); });
  q.push(SimTime::millis(3), [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelHeadAdjustsNextTime) {
  EventQueue q;
  const EventId head = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(9), [] {});
  q.cancel(head);
  EXPECT_EQ(q.next_time(), SimTime::millis(9));
}

TEST(EventQueueTest, LiveSizeTracksCancellations) {
  EventQueue q;
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, IdsAreNeverZero) {
  // 0 is the caller-side "no event" sentinel (see UtilizationMonitor).
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(q.push(SimTime::millis(i), [] {}), 0u);
  }
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId old_id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(old_id));
  // The slot is recycled, but the generation stamp differs.
  bool fired = false;
  const EventId new_id = q.push(SimTime::millis(2), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, FiredIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId fired_id = q.push(SimTime::millis(1), [] {});
  q.pop().fn();
  const EventId live_id = q.push(SimTime::millis(2), [] {});
  EXPECT_NE(fired_id, live_id);
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_TRUE(q.cancel(live_id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelHeavyStressKeepsOrderAndCounts) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(SimTime::micros((i * 7919) % 1000), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  EXPECT_EQ(q.size(), 500u);
  SimTime last = SimTime::zero();
  std::size_t popped = 0;
  while (!q.empty()) {
    const auto entry = q.pop();
    EXPECT_GE(entry.time, last);
    last = entry.time;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
}

TEST(EventQueueTest, EqualTimeTiesAcrossBucketBoundaries) {
  // Tie groups pinned where the wheel changes gear: the last one-tick
  // bucket of a level-0 block, the first tick of the next block, level-2
  // and level-3 territory, and both sides of the overflow horizon.  Every
  // group must still pop in push order after the cascades that reach it.
  EventQueue q;
  const std::int64_t times[] = {255,        256,           65'535,
                                65'536,     16'777'216,    (1LL << 32) - 1,
                                (1LL << 32), (1LL << 32) + 7};
  std::vector<std::pair<std::int64_t, int>> order;
  std::vector<std::pair<std::int64_t, int>> expected;
  int seq = 0;
  // Round-robin across the times so each tie group's pushes interleave
  // with every other group's.
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::int64_t t : times) {
      q.push(SimTime::micros(t),
             [&order, t, s = seq] { order.push_back({t, s}); });
      expected.push_back({t, seq});
      ++seq;
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelInOverflowBucket) {
  // 5000 s = 5e9 µs, beyond the wheel's 2^32 µs span: the event sits in
  // the overflow list, and cancelling it frees its slot at once.
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(1), [&] { order.push_back(1); });
  const EventId doomed = q.push(SimTime::seconds(5000), [&] { order.push_back(2); });
  q.push(SimTime::seconds(6000), [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_FALSE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 2u);
  // The next push reuses the freed slot under a new generation.
  const EventId reused =
      q.push(SimTime::seconds(5500), [&] { order.push_back(4); });
  EXPECT_EQ(static_cast<std::uint32_t>(reused),
            static_cast<std::uint32_t>(doomed));
  EXPECT_NE(reused, doomed);
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3}));
}

TEST(EventQueueTest, SizeStaysExactUnderLazyCancellation) {
  // Cancellation leaves no lazy debt behind: a cancelled event holds no
  // storage, so the simulator never stores more events than are pending,
  // and the next push takes the slot the last cancel freed.
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(sim.schedule(SimTime::micros(1000 + i), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 64u);
  EXPECT_EQ(sim.stored_events(), 64u);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(sim.cancel(ids[i]));
    EXPECT_EQ(sim.stored_events(), sim.pending_events());
  }
  EXPECT_EQ(sim.pending_events(), 32u);
  const EventId reused = sim.schedule(SimTime::micros(5000), [] {});
  EXPECT_EQ(static_cast<std::uint32_t>(reused),
            static_cast<std::uint32_t>(ids[62]));
  EXPECT_EQ(sim.stored_events(), 33u);
  std::size_t fired = 0;
  while (sim.step()) {
    ++fired;
    EXPECT_EQ(sim.pending_events(), 33u - fired);
    EXPECT_EQ(sim.stored_events(), sim.pending_events());
  }
  EXPECT_EQ(fired, 33u);
}

TEST(EventQueueTest, RolloverCascadeStressMatchesReferenceModel) {
  // Randomized interleaving of push/cancel/pop against an exact reference
  // of the old binary heap's order: a set of (time, global push sequence)
  // pairs.  The delta mixture deliberately hits one-tick ties, level
  // boundaries, deep levels and the overflow horizon, and the final drain
  // walks the cursor across several 2^32 µs overflow epochs.
  //
  // Every third round is cancel-heavy and checks the queue against the
  // reference after every operation.  It loads a tie group into the ready
  // run and inserts two nodes ahead of it (the second lands mid-run).  It
  // then cancels one node from each wheel level and one from the overflow
  // list, and from the ready run: the first tie (linked behind the
  // inserted nodes), the mid-run node, a middle tie, the head, the tail,
  // and after a pop the new head.
  EventQueue q;
  common::Rng rng(0xc0ffee);
  std::set<std::pair<std::int64_t, int>> ref;
  struct Pushed {
    EventId id;
    std::int64_t time;
    int seq;
  };
  std::vector<Pushed> pushed;
  std::vector<int> popped;
  int seq = 0;
  std::int64_t now = 0;

  const auto push = [&](std::int64_t t) {
    const int s = seq++;
    const EventId id =
        q.push(SimTime::micros(t), [&popped, s] { popped.push_back(s); });
    ref.insert({t, s});
    pushed.push_back(Pushed{id, t, s});
    return pushed.back();
  };
  const auto cancel = [&](const Pushed& victim) {
    if (q.cancel(victim.id)) {
      EXPECT_EQ(ref.erase({victim.time, victim.seq}), 1u);
    } else {
      EXPECT_EQ(ref.count({victim.time, victim.seq}), 0u);
    }
  };
  const auto pop_and_check = [&] {
    ASSERT_FALSE(ref.empty());
    const auto expect = *ref.begin();
    ref.erase(ref.begin());
    auto entry = q.pop();
    ASSERT_EQ(entry.time.as_micros(), expect.first);
    entry.fn();
    ASSERT_EQ(popped.back(), expect.second);
    now = expect.first;
  };
  const auto check = [&] {
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q.next_time().as_micros(), ref.begin()->first);
    }
  };

  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t r = rng();
      std::int64_t delta = 0;
      switch (r % 5) {
        case 0: delta = static_cast<std::int64_t>((r >> 8) % 4); break;
        case 1: delta = 250 + static_cast<std::int64_t>((r >> 8) % 12); break;
        case 2: delta = static_cast<std::int64_t>((r >> 8) % (1u << 20)); break;
        case 3:
          delta = (1LL << 24) + static_cast<std::int64_t>((r >> 8) % 1024);
          break;
        case 4:
          delta = (1LL << 32) + static_cast<std::int64_t>((r >> 8) % 1000);
          break;
      }
      push(now + delta);
    }
    // Cancel a couple of arbitrary earlier pushes; a stale id (already
    // popped or already cancelled) must refuse, a live one must agree
    // with the reference.
    for (int i = 0; i < 2; ++i) cancel(pushed[rng() % pushed.size()]);
    for (int i = 0; i < 6 && !q.empty(); ++i) pop_and_check();
    ASSERT_EQ(q.size(), ref.size());
    if (round % 3 != 2) continue;

    // Cancel-heavy round.  Pick a tie time g whose four low base-256
    // digits are all below 255, so that raising one digit of g gives a
    // tick at exactly that wheel level.
    std::uint64_t g = static_cast<std::uint64_t>(now) + 1000 + rng() % 256;
    for (std::size_t level = 0; level < 4; ++level) {
      if (((g >> (8 * level)) & 0xff) == 0xff) {
        g += std::uint64_t{1} << (8 * level);
      }
    }
    const auto tie = static_cast<std::int64_t>(g);
    std::vector<Pushed> ties;
    for (int i = 0; i < 5; ++i) {
      ties.push_back(push(tie));
      check();
    }
    // Drain everything earlier; the tie group then leads, so peeking moves
    // the cursor to g and loads the group as the ready run.
    while (ref.begin()->first < tie) {
      pop_and_check();
      check();
    }
    // Both land behind the cursor; `head` goes in front of the tie group
    // and `mid` between `head` and the group.
    const Pushed head = push(now);
    check();
    const Pushed mid = push(now);
    check();
    for (std::size_t level = 0; level <= 4; ++level) {
      std::int64_t t = 0;
      if (level < 4) {
        const std::size_t shift = 8 * level;
        const std::uint64_t digit = (g >> shift) & 0xff;
        const std::uint64_t raised = digit + 1 + rng() % (0xff - digit);
        const std::uint64_t low = (std::uint64_t{1} << shift) - 1;
        t = static_cast<std::int64_t>(
            (g & ~((std::uint64_t{0x100} << shift) - 1)) | (raised << shift) |
            (rng() & low));
      } else {
        t = static_cast<std::int64_t>((((g >> 32) + 1 + rng() % 3) << 32) |
                                      (rng() & 0xffffffffu));
      }
      const Pushed victim = push(t);
      push(t);  // a same-tick survivor keeps the bucket populated
      check();
      cancel(victim);
      check();
    }
    for (const Pushed& victim : {ties[0], mid, ties[2], head, ties[4]}) {
      cancel(victim);
      check();
    }
    pop_and_check();
    check();
    cancel(ties[3]);
    check();
  }
  while (!q.empty()) pop_and_check();
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  // Insert times in a scrambled deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const int t = (i * 7919) % 1000;
    q.push(SimTime::micros(t), [] {});
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    const auto entry = q.pop();
    EXPECT_GE(entry.time, last);
    last = entry.time;
  }
}

}  // namespace
}  // namespace ah::sim
