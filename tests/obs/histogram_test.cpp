#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace ah::obs {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_us(), 0u);
  EXPECT_EQ(h.min_us(), 0u);
  EXPECT_EQ(h.max_us(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 0.0);
  EXPECT_EQ(h.percentile_us(0.5), 0u);
  EXPECT_EQ(h.p99_us(), 0u);
}

TEST(HistogramTest, ValuesBelow32AreExact) {
  // Group 0 has one bucket per microsecond, so every percentile of a
  // sub-32 us distribution is exact.
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record_us(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min_us(), 0u);
  EXPECT_EQ(h.max_us(), 31u);
  // rank = ceil(0.5 * 32) = 16 -> 16th smallest value = 15.
  EXPECT_EQ(h.p50_us(), 15u);
  // rank = ceil(0.25 * 32) = 8 -> value 7.
  EXPECT_EQ(h.percentile_us(0.25), 7u);
}

TEST(HistogramTest, BucketIndexIsMonotoneAndInRange) {
  std::size_t prev = 0;
  for (int bit = 0; bit < 64; ++bit) {
    for (std::uint64_t v :
         {std::uint64_t{1} << bit, (std::uint64_t{1} << bit) + 1}) {
      const std::size_t idx = Histogram::bucket_index(v);
      ASSERT_LT(idx, Histogram::kBucketCount) << "v=" << v;
      ASSERT_GE(idx, prev) << "v=" << v;
      ASSERT_LE(Histogram::bucket_low_us(idx), v) << "v=" << v;
      ASSERT_GE(Histogram::bucket_high_us(idx), v) << "v=" << v;
      ASSERT_EQ(Histogram::bucket_index(Histogram::bucket_high_us(idx)), idx)
          << "v=" << v;
      prev = idx;
    }
  }
}

TEST(HistogramTest, BucketBoundaries) {
  // [0, 32): identity mapping.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(31), 31u);
  // Group 1 starts at index 64 (slots [32, 64) are unused by design).
  EXPECT_EQ(Histogram::bucket_index(32), 64u);
  EXPECT_EQ(Histogram::bucket_index(63), 95u);
  // Group 2: [64, 128) in 32 sub-buckets of width 2.
  EXPECT_EQ(Histogram::bucket_index(64), 96u);
  EXPECT_EQ(Histogram::bucket_index(65), 96u);
  EXPECT_EQ(Histogram::bucket_index(66), 97u);
  // Representative (lower bound) round-trips.
  EXPECT_EQ(Histogram::bucket_low_us(Histogram::bucket_index(64)), 64u);
  EXPECT_EQ(Histogram::bucket_low_us(Histogram::bucket_index(100)), 100u);
  // Inclusive upper bounds: the last value before the next bucket starts.
  EXPECT_EQ(Histogram::bucket_high_us(Histogram::bucket_index(31)), 31u);
  EXPECT_EQ(Histogram::bucket_high_us(Histogram::bucket_index(32)), 32u);
  EXPECT_EQ(Histogram::bucket_high_us(Histogram::bucket_index(64)), 65u);
  EXPECT_EQ(Histogram::bucket_high_us(Histogram::bucket_index(100)), 101u);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Histogram::bucket_high_us(Histogram::bucket_index(kMax)), kMax);
}

TEST(HistogramTest, ExtremeValuesStayInBounds) {
  Histogram h;
  h.record_us(std::numeric_limits<std::uint64_t>::max());
  h.record_us(std::uint64_t{1} << 63);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_us(), std::numeric_limits<std::uint64_t>::max());
  // Both land in the top group; the rank-1 percentile reports the bucket
  // lower bound, the rank-2 one the exact maximum.
  EXPECT_EQ(h.percentile_us(1.0), std::numeric_limits<std::uint64_t>::max());
}

TEST(HistogramTest, RelativeErrorBoundedBySubBucketWidth) {
  Histogram h;
  const std::uint64_t v = 1'000'000;  // 1 s in us
  h.record_us(v);
  const std::uint64_t low =
      Histogram::bucket_low_us(Histogram::bucket_index(v));
  EXPECT_LE(low, v);
  // Sub-bucket width in v's octave is 2^(group-1); bound is v / 32.
  EXPECT_LE(v - low, v / 32 + 1);
}

TEST(HistogramTest, LastOccupiedBucketReportsExactMax) {
  Histogram h;
  h.record_us(10);
  h.record_us(1'000'003);  // not a bucket boundary
  // p99 rank = ceil(0.99 * 2) = 2 -> lands in the max's bucket -> exact max.
  EXPECT_EQ(h.p99_us(), 1'000'003u);
  EXPECT_EQ(h.p50_us(), 10u);
}

TEST(HistogramTest, RecordClampsNegativeSpans) {
  Histogram h;
  h.record(common::SimTime::micros(-5));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_us(), 0u);
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram both;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    (v % 2 == 0 ? a : b).record_us(v * 37);
    both.record_us(v * 37);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum_us(), both.sum_us());
  EXPECT_EQ(a.min_us(), both.min_us());
  EXPECT_EQ(a.max_us(), both.max_us());
  EXPECT_EQ(a.p50_us(), both.p50_us());
  EXPECT_EQ(a.p95_us(), both.p95_us());
  EXPECT_EQ(a.p99_us(), both.p99_us());
}

TEST(HistogramTest, MergeEmptyLeavesStatsUntouched) {
  Histogram a;
  a.record_us(42);
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min_us(), 42u);
  EXPECT_EQ(a.max_us(), 42u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.record_us(7);
  h.record_us(1 << 20);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_us(), 0u);
  EXPECT_EQ(h.p50_us(), 0u);
  h.record_us(3);
  EXPECT_EQ(h.min_us(), 3u);
  EXPECT_EQ(h.p50_us(), 3u);
}

TEST(HistogramTest, PercentilesAreExactRankAgainstSortedData) {
  // Cross-check the bucket walk against a brute-force exact-rank answer on
  // sub-32 us data, where buckets are exact.
  Histogram h;
  const std::uint64_t values[] = {3, 3, 5, 9, 9, 9, 14, 20, 20, 31};
  for (std::uint64_t v : values) h.record_us(v);
  // n = 10: rank(0.5) = 5 -> 9; rank(0.95) = 10 -> 31; rank(0.1) = 1 -> 3.
  EXPECT_EQ(h.p50_us(), 9u);
  EXPECT_EQ(h.p95_us(), 31u);
  EXPECT_EQ(h.percentile_us(0.1), 3u);
}

TEST(HistogramTest, NullSinkMacroIsANoOp) {
  Histogram* null_hist = nullptr;
  AH_OBS_RECORD_US(null_hist, 5);
  AH_OBS_RECORD_SPAN(null_hist, common::SimTime::micros(5));
  Histogram h;
  AH_OBS_RECORD_US(&h, 5);
  AH_OBS_RECORD_SPAN(&h, common::SimTime::micros(6));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_us(), 6u);
}

}  // namespace
}  // namespace ah::obs
