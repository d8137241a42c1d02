// Fixed-size log-linear latency histogram (HDR-histogram style).
//
// Values are integer microseconds — the simulator's native time unit — so
// recording is a pure array increment: compute a bucket index from the bit
// width of the value, bump a counter.  No floating point, no allocation, no
// RNG, no events.  That is what lets histograms stay recording even on runs
// whose golden outputs must remain byte-identical: observation is passive.
//
// Bucket layout: 2^kSubBits (= 32) linear sub-buckets per power-of-two
// octave.  Group 0 covers [0, 32) exactly (one bucket per microsecond);
// group g >= 1 covers [32 * 2^(g-1), 32 * 2^g) in 32 equal sub-buckets, so
// relative bucket width is bounded by 1/32 ≈ 3.1% everywhere.  Group g's
// buckets start at index (g + 1) * 32 — the branch-free index formula leaves
// slots [32, 64) unused — so the full 64-bit range (groups 0..59) spans
// 61 * 32 = 1952 bucket indices.
//
// Counters are paged: one 32-counter page per octave group, allocated on
// the first record that touches the group and retained across reset().  A
// real latency population occupies a handful of octaves, so an idle
// histogram costs its 61-pointer page table instead of a 15 KiB slab —
// which is what keeps the per-line telemetry of a 128-line model (dozens
// of histograms per line) in the noise.  A warmed-up histogram's record
// path is still a pure array increment: every octave the workload can
// reach is paged in during warm-up, which is why the zero-allocation
// request-path property (zero_alloc_test) measures after warm-up.
//
// Percentiles use the exact-rank method: rank = ceil(q * count), walk the
// buckets accumulating counts, report the lower bound of the bucket that
// contains the rank (exact for values < 32 us; within one sub-bucket width
// otherwise).  The maximum is tracked exactly on the side.  Identical
// record sequences therefore produce identical percentiles on every
// platform and at every thread count.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>

#include "common/analysis.hpp"
#include "common/units.hpp"

// record_us/record run behind the AH_OBS_* macros on every traced request.
AH_HOT_PATH_FILE;

namespace ah::obs {

class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;          // 32
  static constexpr int kGroups = 64 - kSubBits;              // 59 + group 0
  /// Highest index is for group kGroups, sub kSubBuckets-1:
  /// kGroups * 32 + (32 - 1) + 32, hence the + 2 (slots [32, 64) go unused
  /// so that bucket_index stays branch-free).
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kGroups + 2) * kSubBuckets;   // 1952
  /// One counter page per octave group.
  static constexpr std::size_t kPageCount = kBucketCount / kSubBuckets;  // 61

  Histogram() = default;

  /// Records one value in integer microseconds.  Hot path: in
  /// AH_HOT_PATH_FILE files call through AH_OBS_RECORD_US, never directly
  /// (enforced by ah_lint rule obs_hot_path).  Allocation-free once the
  /// value's octave page exists (first touch pages it in, out of line).
  void record_us(std::uint64_t us) {
    const std::size_t i = bucket_index(us);
    Page* page = pages_[i >> kSubBits].get();
    if (page == nullptr) page = &touch_page(i >> kSubBits);
    page->counts[i & (kSubBuckets - 1)] += 1;
    ++count_;
    sum_us_ += us;
    if (us > max_us_) max_us_ = us;
    if (us < min_us_) min_us_ = us;
  }

  /// Convenience for SimTime spans (negative spans clamp to zero).
  void record(common::SimTime span) {
    const std::int64_t us = span.as_micros();
    record_us(us > 0 ? static_cast<std::uint64_t>(us) : 0u);
  }

  /// Clears all counters; capacity (the paged-in octaves) is retained.
  void reset() {
    for (auto& page : pages_) {
      if (page != nullptr) page->counts.fill(0);
    }
    count_ = 0;
    sum_us_ = 0;
    max_us_ = 0;
    min_us_ = ~0ull;
  }

  /// Adds another histogram's counts into this one (bucket-wise).  Used to
  /// combine per-line meters into one per-iteration distribution.  Pages
  /// occupied only on the other side are paged in here (cold path).
  void merge(const Histogram& other) {
    for (std::size_t p = 0; p < kPageCount; ++p) {
      const Page* theirs = other.pages_[p].get();
      if (theirs == nullptr) continue;
      Page& ours = touch_page(p);
      for (std::size_t j = 0; j < static_cast<std::size_t>(kSubBuckets);
           ++j) {
        ours.counts[j] += theirs->counts[j];
      }
    }
    count_ += other.count_;
    sum_us_ += other.sum_us_;
    if (other.count_ > 0) {
      if (other.max_us_ > max_us_) max_us_ = other.max_us_;
      if (other.min_us_ < min_us_) min_us_ = other.min_us_;
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum_us() const { return sum_us_; }
  /// Exact maximum recorded value (0 when empty).
  [[nodiscard]] std::uint64_t max_us() const {
    return count_ > 0 ? max_us_ : 0;
  }
  /// Exact minimum recorded value (0 when empty).
  [[nodiscard]] std::uint64_t min_us() const {
    return count_ > 0 ? min_us_ : 0;
  }
  [[nodiscard]] double mean_us() const {
    return count_ > 0
               ? static_cast<double>(sum_us_) / static_cast<double>(count_)
               : 0.0;
  }

  /// Exact-rank percentile, q in [0, 1]: the lower bound of the bucket
  /// holding sample number ceil(q * count) in sorted order.  q >= 1 (or a
  /// rank landing in the last occupied bucket) reports the exact maximum.
  /// Returns 0 for an empty histogram.
  [[nodiscard]] std::uint64_t percentile_us(double q) const;

  [[nodiscard]] std::uint64_t p50_us() const { return percentile_us(0.50); }
  [[nodiscard]] std::uint64_t p95_us() const { return percentile_us(0.95); }
  [[nodiscard]] std::uint64_t p99_us() const { return percentile_us(0.99); }

  /// Lowest value that maps to bucket `i` — the reported representative.
  /// Inverts bucket_index: group g's buckets sit at base (g + 1) * 32, so
  /// the group is recovered as (i >> kSubBits) - 1.
  [[nodiscard]] static std::uint64_t bucket_low_us(std::size_t i) {
    const std::uint64_t igroup = i >> kSubBits;  // = group + 1 for group >= 1
    const std::uint64_t sub = i & (kSubBuckets - 1);
    if (igroup <= 1) return sub;  // group 0 (and the unused [32, 64) slots)
    return (static_cast<std::uint64_t>(kSubBuckets) + sub) << (igroup - 2);
  }

  /// Highest value that maps to bucket `i`: the next bucket's lower bound
  /// minus one (the top bucket ends at the largest 64-bit value).
  [[nodiscard]] static std::uint64_t bucket_high_us(std::size_t i) {
    const std::uint64_t igroup = i >> kSubBits;
    const std::uint64_t sub = i & (kSubBuckets - 1);
    if (igroup <= 1) return sub;  // one value per bucket below 32 us
    // Unsigned wrap makes the top bucket's bound 2^64 - 1.
    return ((static_cast<std::uint64_t>(kSubBuckets) + sub + 1)
            << (igroup - 2)) - 1;
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t us) {
    if (us < kSubBuckets) return static_cast<std::size_t>(us);
    const int width = 64 - std::countl_zero(us);  // >= kSubBits + 1
    const int group = width - kSubBits;
    const std::uint64_t sub =
        (us >> (group - 1)) - static_cast<std::uint64_t>(kSubBuckets);
    return static_cast<std::size_t>(group) * kSubBuckets +
           static_cast<std::size_t>(sub) + kSubBuckets;
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    const Page* page = pages_[i >> kSubBits].get();
    return page != nullptr ? page->counts[i & (kSubBuckets - 1)] : 0;
  }

 private:
  struct Page {
    std::array<std::uint64_t, kSubBuckets> counts{};
  };

  /// Returns group page `p`, allocating it on first touch.  Out of line:
  /// this header is hot-path (ah_lint hot_path_alloc), and paging in an
  /// octave is the rare cold branch of record_us().
  [[nodiscard]] Page& touch_page(std::size_t p);

  std::array<std::unique_ptr<Page>, kPageCount> pages_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_us_ = 0;
  std::uint64_t max_us_ = 0;
  std::uint64_t min_us_ = ~0ull;
};

}  // namespace ah::obs

/// Null-checked histogram record for hot-path files.  The macro spelling is
/// what ah_lint's obs_hot_path rule recognises as the approved alloc-free
/// form; a direct `->record_us(...)` in an AH_HOT_PATH_FILE file is a lint
/// finding.  `hist` is a (possibly null) ah::obs::Histogram*.
#define AH_OBS_RECORD_US(hist, us)                 \
  do {                                             \
    ::ah::obs::Histogram* ah_obs_h_ = (hist);      \
    AH_LINT_ALLOW(obs_hot_path, "the approved macro's own body");  \
    if (ah_obs_h_ != nullptr) ah_obs_h_->record_us(us); \
  } while (false)

/// SimTime-span variant of AH_OBS_RECORD_US.
#define AH_OBS_RECORD_SPAN(hist, span)             \
  do {                                             \
    ::ah::obs::Histogram* ah_obs_h_ = (hist);      \
    AH_LINT_ALLOW(obs_hot_path, "the approved macro's own body");  \
    if (ah_obs_h_ != nullptr) ah_obs_h_->record(span); \
  } while (false)
