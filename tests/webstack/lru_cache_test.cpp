#include "webstack/lru_cache.hpp"

#include <gtest/gtest.h>

namespace ah::webstack {
namespace {

TEST(LruCacheTest, MissOnEmpty) {
  LruCache cache(1000);
  EXPECT_EQ(cache.lookup(1), -1);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, HitAfterInsert) {
  LruCache cache(1000);
  EXPECT_TRUE(cache.insert(1, 100));
  EXPECT_EQ(cache.lookup(1), 100);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.used(), 100);
}

TEST(LruCacheTest, ContainsDoesNotPromoteOrCount) {
  LruCache cache(1000);
  cache.insert(1, 10);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  // Watermarks 100/100 => plain LRU at exact capacity.
  LruCache cache(300, 100, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);
  cache.insert(3, 100);
  cache.insert(4, 100);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, LookupPromotes) {
  LruCache cache(300, 100, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);
  cache.insert(3, 100);
  cache.lookup(1);       // 1 becomes MRU; 2 is now LRU
  cache.insert(4, 100);  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruCacheTest, WatermarkEvictionDownToLow) {
  // capacity 1000, high 90% (900), low 50% (500).
  LruCache cache(1000, 50, 90);
  for (std::uint64_t k = 0; k < 9; ++k) cache.insert(k, 100);
  EXPECT_EQ(cache.used(), 900);  // at high watermark, no eviction yet
  cache.insert(9, 100);          // crosses high -> evict to low
  EXPECT_LE(cache.used(), 500);
}

TEST(LruCacheTest, OversizedObjectRefused) {
  LruCache cache(1000, 90, 95);
  EXPECT_FALSE(cache.insert(1, 951));  // > high watermark bytes
  EXPECT_TRUE(cache.insert(2, 900));
}

TEST(LruCacheTest, RefreshUpdatesSizeInPlace) {
  LruCache cache(1000, 100, 100);
  cache.insert(1, 100);
  cache.insert(1, 300);
  EXPECT_EQ(cache.used(), 300);
  EXPECT_EQ(cache.object_count(), 1u);
  EXPECT_EQ(cache.lookup(1), 300);
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache cache(1000);
  cache.insert(1, 100);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.used(), 0);
  EXPECT_EQ(cache.lookup(1), -1);
}

TEST(LruCacheTest, ClearEmptiesEverything) {
  LruCache cache(1000);
  cache.insert(1, 100);
  cache.insert(2, 100);
  cache.clear();
  EXPECT_EQ(cache.used(), 0);
  EXPECT_EQ(cache.object_count(), 0u);
}

TEST(LruCacheTest, ShrinkCapacityEvicts) {
  LruCache cache(1000, 100, 100);
  for (std::uint64_t k = 0; k < 10; ++k) cache.insert(k, 100);
  cache.set_capacity(300);
  EXPECT_LE(cache.used(), 300);
  EXPECT_TRUE(cache.contains(9));  // MRU survives
}

TEST(LruCacheTest, GrowCapacityKeepsContents) {
  LruCache cache(200, 100, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);
  cache.set_capacity(1000);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LruCacheTest, TightenWatermarksEvicts) {
  LruCache cache(1000, 90, 95);
  for (std::uint64_t k = 0; k < 9; ++k) cache.insert(k, 100);
  cache.set_watermarks(30, 50);
  EXPECT_LE(cache.used(), 300);
}

TEST(LruCacheTest, HitRatio) {
  LruCache cache(1000);
  cache.insert(1, 10);
  cache.lookup(1);
  cache.lookup(1);
  cache.lookup(2);
  EXPECT_NEAR(cache.hit_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(LruCacheTest, HitRatioZeroWithoutLookups) {
  LruCache cache(1000);
  EXPECT_EQ(cache.hit_ratio(), 0.0);
}

TEST(LruCacheTest, FreshEntryHitsBeforeExpiry) {
  LruCache cache(1000);
  cache.insert(1, 100, common::SimTime::seconds(10.0));
  EXPECT_EQ(cache.lookup(1, common::SimTime::seconds(5.0)), 100);
  EXPECT_EQ(cache.expirations(), 0u);
}

TEST(LruCacheTest, ExpiredEntryMissesAndIsEvicted) {
  LruCache cache(1000);
  cache.insert(1, 100, common::SimTime::seconds(10.0));
  EXPECT_EQ(cache.lookup(1, common::SimTime::seconds(10.0)), -1);  // at expiry
  EXPECT_EQ(cache.expirations(), 1u);
  EXPECT_EQ(cache.used(), 0);
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruCacheTest, ReinsertRefreshesExpiry) {
  LruCache cache(1000);
  cache.insert(1, 100, common::SimTime::seconds(10.0));
  cache.insert(1, 100, common::SimTime::seconds(30.0));
  EXPECT_EQ(cache.lookup(1, common::SimTime::seconds(20.0)), 100);
}

TEST(LruCacheTest, DefaultExpiryIsNever) {
  LruCache cache(1000);
  cache.insert(1, 100);
  EXPECT_EQ(cache.lookup(1, common::SimTime::seconds(1e9)), 100);
}

TEST(LruCacheTest, ZeroSizeObjectsAllowed) {
  LruCache cache(100);
  EXPECT_TRUE(cache.insert(1, 0));
  EXPECT_EQ(cache.lookup(1), 0);
}

// Regression: contains() must apply the same freshness rule as lookup()
// would at the same time — an expired entry reports absent — but without
// evicting it or touching the counters (a peek must not mutate).
TEST(LruCacheTest, ContainsReportsExpiredAsAbsentWithoutEvicting) {
  LruCache cache(1000);
  cache.insert(1, 100, common::SimTime::seconds(10.0));
  EXPECT_TRUE(cache.contains(1, common::SimTime::seconds(9.0)));
  EXPECT_FALSE(cache.contains(1, common::SimTime::seconds(10.0)));  // at expiry
  EXPECT_FALSE(cache.contains(1, common::SimTime::seconds(11.0)));
  // The peek left the entry in place: counters untouched, bytes still held.
  EXPECT_EQ(cache.expirations(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.used(), 100);
  EXPECT_EQ(cache.object_count(), 1u);
}

// -- slab/index edge cases ---------------------------------------------------

// Shrinking capacity mid-stream (proxy restart with a smaller cache_mem)
// must evict from the LRU end and keep the index consistent for the
// survivors and for later inserts.
TEST(LruCacheTest, SetCapacityShrinkMidStream) {
  LruCache cache(100'000, 90, 95);
  for (std::uint64_t k = 0; k < 200; ++k) cache.insert(k, 400);
  cache.set_capacity(10'000);  // high watermark now 9'500
  EXPECT_LE(cache.used(), 9'500);
  // Most-recent entries survive and stay reachable.
  EXPECT_TRUE(cache.contains(199));
  EXPECT_FALSE(cache.contains(0));
  // The cache keeps working at the new size.
  for (std::uint64_t k = 200; k < 400; ++k) cache.insert(k, 400);
  EXPECT_LE(cache.used(), 9'500);
  EXPECT_TRUE(cache.contains(399));
}

// A refresh that grows an entry past the high watermark must trigger the
// same eviction pass a fresh insert would.
TEST(LruCacheTest, RefreshGrowingPastHighWatermarkEvicts) {
  LruCache cache(1000, 50, 90);
  cache.insert(1, 300);
  cache.insert(2, 300);
  cache.insert(3, 200);
  EXPECT_EQ(cache.used(), 800);  // under high watermark (900)
  cache.insert(3, 400);          // refresh: 800 -> 1000 > 900 -> evict to 500
  EXPECT_LE(cache.used(), 500);
  EXPECT_TRUE(cache.contains(3));   // refreshed entry is MRU, survives
  EXPECT_FALSE(cache.contains(1));  // LRU entry evicted
}

// Tightening watermarks also tightens the max-object-size refusal rule.
TEST(LruCacheTest, InsertLargerThanHighWatermarkAfterSetWatermarks) {
  LruCache cache(1000, 90, 95);
  EXPECT_TRUE(cache.insert(1, 900));  // fits under 950
  cache.set_watermarks(30, 50);
  EXPECT_FALSE(cache.insert(2, 600));  // > 500, refused now
  EXPECT_TRUE(cache.insert(3, 500));
}

// The tuner varies cache_swap_low and cache_swap_high independently, so an
// inverted pair is valid: eviction fires above `high` but trims only to
// `low`, so the cache fills to `low`, while `high` still caps the size of
// an admitted object.
TEST(LruCacheTest, InvertedWatermarksFillToLowAndCapObjectsAtHigh) {
  // capacity 1000, low 90% (900), high 60% (600).
  LruCache cache(1000, 90, 60);
  for (std::uint64_t k = 0; k < 9; ++k) EXPECT_TRUE(cache.insert(k, 100));
  EXPECT_EQ(cache.used(), 900);  // past high, but not past low
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.insert(9, 100));  // past low -> trims back to low
  EXPECT_EQ(cache.used(), 900);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.insert(10, 601));  // > high watermark bytes
  EXPECT_TRUE(cache.insert(11, 600));
  EXPECT_LE(cache.used(), 900);

  // set_watermarks takes an inverted pair the same way.
  const std::uint64_t evictions = cache.evictions();
  const common::Bytes used = cache.used();
  ASSERT_GT(used, 500);
  cache.set_watermarks(95, 50);
  EXPECT_EQ(cache.evictions(), evictions);  // past high, not past low
  EXPECT_EQ(cache.used(), used);
  EXPECT_FALSE(cache.insert(12, 501));
  EXPECT_TRUE(cache.insert(13, 500));
  EXPECT_LE(cache.used(), 950);
}

// Heavy erase/insert churn recycles slab slots; stale index entries or slot
// aliasing would surface as wrong lookups here.  The key range forces the
// bucket array through several growth rehashes while erases interleave.
TEST(LruCacheTest, SlotReuseAfterChurnKeepsIndexConsistent) {
  LruCache cache(1'000'000, 100, 100);
  constexpr std::uint64_t kRounds = 50;
  constexpr std::uint64_t kBatch = 64;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      cache.insert(r * kBatch + k, 1 + (k % 7));
    }
    // Erase every other key from this batch — frees slots mid-table.
    for (std::uint64_t k = 0; k < kBatch; k += 2) {
      EXPECT_TRUE(cache.erase(r * kBatch + k));
    }
  }
  // Exactly the odd keys of every round remain, each with its own size.
  EXPECT_EQ(cache.object_count(), kRounds * kBatch / 2);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const std::uint64_t key = r * kBatch + k;
      if (k % 2 == 0) {
        EXPECT_FALSE(cache.contains(key)) << "ghost key " << key;
      } else {
        EXPECT_EQ(cache.lookup(key), static_cast<common::Bytes>(1 + (k % 7)))
            << "key " << key;
      }
    }
  }
}

// Regression: an insert that lands exactly on a growth rehash must not file
// the new entry twice (the rehash walk already re-files the whole recency
// list, new entry included).  A duplicate bucket survives erase and later
// ghost-hits whatever recycles the slot.
TEST(LruCacheTest, InsertDuringRehashDoesNotDuplicateIndexEntry) {
  LruCache cache(1'000'000, 100, 100);
  // Fill through several doublings of the 64-bucket initial table.
  for (std::uint64_t k = 0; k < 1000; ++k) cache.insert(k, 1);
  // Every key must be erasable exactly once — a duplicate would make the
  // second erase of the same key succeed via the stale bucket.
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(cache.erase(k)) << "key " << k;
    EXPECT_FALSE(cache.erase(k)) << "duplicate index entry for key " << k;
  }
  EXPECT_EQ(cache.object_count(), 0u);
  EXPECT_EQ(cache.used(), 0);
}

// Property-style sweep: the byte budget invariant holds across watermark
// combinations and access patterns.
class LruWatermarkSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LruWatermarkSweep, UsedNeverExceedsHighWatermarkAfterInsert) {
  const auto [low, high] = GetParam();
  LruCache cache(10'000, low, high);
  for (std::uint64_t k = 0; k < 500; ++k) {
    cache.insert(k, 37 + (k * 13) % 400);
    EXPECT_LE(cache.used(), cache.capacity() * high / 100);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Watermarks, LruWatermarkSweep,
    ::testing::Values(std::pair{50, 60}, std::pair{90, 95}, std::pair{30, 90},
                      std::pair{95, 99}, std::pair{100, 100}));

}  // namespace
}  // namespace ah::webstack
