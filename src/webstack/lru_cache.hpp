// Byte-budgeted LRU object cache with Squid-style watermark eviction.
//
// Used twice by the proxy model: once for the in-memory object cache
// (capacity = cache_mem) and once for the on-disk cache.  Eviction follows
// Squid's cache_swap_low/high watermarks: inserts may fill the cache to the
// high watermark; crossing it triggers eviction down to the low watermark.
// With the default 90/95 settings this behaves almost exactly like plain
// LRU — which is why the paper found these two knobs performance-inert, a
// property our reproduction preserves by construction.
//
// Storage is a contiguous slab of entries threaded by an intrusive doubly
// linked list (indices, not pointers), with an open-addressing hash index
// on top.  Compared to the std::list + std::unordered_map it replaced, the
// steady state allocates nothing (freed slots are recycled through a free
// list), and lookups touch two small arrays instead of chasing node
// pointers — the proxy performs several cache operations per request, so
// this is squarely on the simulation hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/analysis.hpp"
#include "common/units.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

class LruCache {
 public:
  /// Watermarks are percentages of capacity, each in (0, 100].  An
  /// object larger than the high watermark is refused; filling past the
  /// high watermark evicts down to the low one.  The tuner varies the two
  /// independently, so low > high is valid: eviction then fires above
  /// `high` but trims only to `low`, so the cache fills to `low` and trims
  /// back to it, while `high` still caps an admitted object's size.
  LruCache(common::Bytes capacity, int swap_low_percent = 90,
           int swap_high_percent = 95);

  /// Looks up an object and promotes it to most-recently-used.
  /// Returns the object size, or -1 on miss.  An entry whose expiry is at
  /// or before `now` counts as a miss and is evicted (TPC-W pages carry
  /// finite freshness; serving stale prices is not an option).
  common::Bytes lookup(std::uint64_t key,
                       common::SimTime now = common::SimTime::zero());

  /// Degraded-mode lookup: like lookup(), but an expired entry still
  /// counts as a hit (promoted, kept and counted).  The
  /// proxy's serve-stale mode prefers an outdated page over an error when
  /// the whole application tier is marked down — RFC 5861's
  /// stale-if-error, in cache terms.
  common::Bytes lookup_stale(std::uint64_t key);

  /// Peeks without promoting and without touching the hit/miss counters
  /// (for tests/metrics).  An entry expired at or before `now` reports as
  /// absent — matching what lookup() at the same time would conclude — but
  /// is left in place (a peek must not mutate).
  [[nodiscard]] bool contains(
      std::uint64_t key, common::SimTime now = common::SimTime::zero()) const;

  /// Inserts (or refreshes) an object.  Objects larger than the high
  /// watermark in bytes are refused (returns false), matching Squid.
  /// `expires_at` defaults to "never".
  bool insert(std::uint64_t key, common::Bytes size,
              common::SimTime expires_at = common::SimTime::max());

  /// Removes an object; returns false when absent.
  bool erase(std::uint64_t key);

  void clear();

  /// Re-sizes the cache (proxy re-start with a new cache_mem); evicts down
  /// to the new watermarks immediately.
  void set_capacity(common::Bytes capacity);
  void set_watermarks(int low_percent, int high_percent);

  [[nodiscard]] common::Bytes capacity() const { return capacity_; }
  [[nodiscard]] common::Bytes used() const { return used_; }
  [[nodiscard]] std::size_t object_count() const { return count_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t expirations() const { return expirations_; }
  [[nodiscard]] double hit_ratio() const;

 private:
  /// Slab entry: payload plus intrusive list links (slab indices; -1 ends
  /// the list).  Links as indices survive slab reallocation on growth.
  /// `bucket` mirrors the entry's current position in the hash index so
  /// eviction can erase without re-probing; every bucket move (insert,
  /// backward shift, rehash) keeps it current.
  struct Entry {
    std::uint64_t key = 0;
    common::Bytes size = 0;
    common::SimTime expires_at = common::SimTime::max();
    std::int32_t prev = -1;
    std::int32_t next = -1;
    std::uint32_t bucket = 0;
  };

  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

  [[nodiscard]] common::Bytes high_bytes() const;
  [[nodiscard]] common::Bytes low_bytes() const;
  /// Evicts LRU entries until used_ <= limit.
  void evict_to(common::Bytes limit);

  /// Bucket currently holding `key`, or kNoBucket.
  [[nodiscard]] std::size_t find_bucket(std::uint64_t key) const;
  /// Clears bucket `b` and backward-shifts the rest of its probe cluster
  /// so linear probing stays correct without tombstones.
  void index_erase(std::size_t b);
  void rehash(std::size_t buckets);

  /// Unlinks `slot` from the recency list.
  void list_detach(std::int32_t slot);
  /// Links `slot` at the MRU end.
  void list_push_front(std::int32_t slot);

  /// Takes a free slot (recycled or newly grown).
  [[nodiscard]] std::int32_t slot_acquire();
  /// Removes `slot` entirely: list, index, byte/count accounting.
  void remove_slot(std::int32_t slot);


  common::Bytes capacity_;
  int swap_low_;
  int swap_high_;
  common::Bytes used_ = 0;

  std::vector<Entry> slab_;
  std::vector<std::int32_t> free_slots_;
  std::int32_t head_ = -1;  // MRU
  std::int32_t tail_ = -1;  // LRU
  std::size_t count_ = 0;

  /// Open-addressing index bucket.  The key is duplicated here so a probe
  /// step costs one contiguous load instead of an indirect hop into the
  /// slab for the compare, and the probe distance from the key's home
  /// bucket is cached so backward-shift deletion never recomputes hashes.
  /// 16 bytes total — the dist field lives in what would be padding.
  struct Bucket {
    std::uint64_t key = 0;
    std::int32_t slot = -1;  // -1 = empty
    std::uint32_t dist = 0;  // (index - home) & bucket_mask_
  };

  /// Open-addressing index: power-of-two bucket array, linear probing.
  std::vector<Bucket> buckets_;
  std::size_t bucket_mask_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace ah::webstack
