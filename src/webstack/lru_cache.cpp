#include "webstack/lru_cache.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

namespace {
/// Keys carry structure (the top 16 bits hold the interaction type), so the
/// index scrambles them through splitmix64 before masking.
std::size_t hash_key(std::uint64_t key) {
  return static_cast<std::size_t>(common::splitmix64(key));
}
}  // namespace

LruCache::LruCache(common::Bytes capacity, int swap_low_percent,
                   int swap_high_percent)
    : capacity_(capacity),
      swap_low_(swap_low_percent),
      swap_high_(swap_high_percent) {
  assert(capacity_ >= 0);
  assert(swap_low_ > 0 && swap_low_ <= 100);
  assert(swap_high_ > 0 && swap_high_ <= 100);
  rehash(64);
}

common::Bytes LruCache::high_bytes() const {
  return capacity_ * swap_high_ / 100;
}

common::Bytes LruCache::low_bytes() const {
  return capacity_ * swap_low_ / 100;
}

// -- hash index --------------------------------------------------------------

std::size_t LruCache::find_bucket(std::uint64_t key) const {
  std::size_t b = hash_key(key) & bucket_mask_;
  while (buckets_[b].slot >= 0) {
    if (buckets_[b].key == key) return b;
    b = (b + 1) & bucket_mask_;
  }
  return kNoBucket;
}

void LruCache::index_erase(std::size_t b) {
  // Backward-shift deletion: walk the probe cluster after `b`; any entry
  // whose home position does not lie strictly after the hole is moved into
  // the hole (it could otherwise become unreachable).  The cached probe
  // distance makes the reachability check hash-free: an entry may move to
  // the hole exactly when its displacement covers the gap.
  std::size_t hole = b;
  std::size_t i = (b + 1) & bucket_mask_;
  while (buckets_[i].slot >= 0) {
    const std::uint32_t gap =
        static_cast<std::uint32_t>((i - hole) & bucket_mask_);
    if (buckets_[i].dist >= gap) {
      buckets_[hole] = buckets_[i];
      buckets_[hole].dist -= gap;
      slab_[static_cast<std::size_t>(buckets_[hole].slot)].bucket =
          static_cast<std::uint32_t>(hole);
      hole = i;
    }
    i = (i + 1) & bucket_mask_;
  }
  buckets_[hole].slot = -1;
}

void LruCache::rehash(std::size_t buckets) {
  assert((buckets & (buckets - 1)) == 0);
  buckets_.assign(buckets, Bucket{});
  bucket_mask_ = buckets - 1;
  // Re-file every live entry (walk the recency list; free slots stay out).
  for (std::int32_t s = head_; s >= 0;
       s = slab_[static_cast<std::size_t>(s)].next) {
    const std::uint64_t key = slab_[static_cast<std::size_t>(s)].key;
    const std::size_t home = hash_key(key) & bucket_mask_;
    std::size_t b = home;
    while (buckets_[b].slot >= 0) b = (b + 1) & bucket_mask_;
    buckets_[b] = Bucket{key, s,
                         static_cast<std::uint32_t>((b - home) & bucket_mask_)};
    slab_[static_cast<std::size_t>(s)].bucket = static_cast<std::uint32_t>(b);
  }
}

// -- intrusive recency list --------------------------------------------------

void LruCache::list_detach(std::int32_t slot) {
  Entry& e = slab_[static_cast<std::size_t>(slot)];
  if (e.prev >= 0) {
    slab_[static_cast<std::size_t>(e.prev)].next = e.next;
  } else {
    head_ = e.next;
  }
  if (e.next >= 0) {
    slab_[static_cast<std::size_t>(e.next)].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
  e.prev = -1;
  e.next = -1;
}

void LruCache::list_push_front(std::int32_t slot) {
  Entry& e = slab_[static_cast<std::size_t>(slot)];
  e.prev = -1;
  e.next = head_;
  if (head_ >= 0) slab_[static_cast<std::size_t>(head_)].prev = slot;
  head_ = slot;
  if (tail_ < 0) tail_ = slot;
}

// -- slot management ---------------------------------------------------------

std::int32_t LruCache::slot_acquire() {
  if (!free_slots_.empty()) {
    const std::int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::int32_t>(slab_.size() - 1);
}

void LruCache::remove_slot(std::int32_t slot) {
  const std::size_t b = slab_[static_cast<std::size_t>(slot)].bucket;
  assert(buckets_[b].slot == slot);
  index_erase(b);
  used_ -= slab_[static_cast<std::size_t>(slot)].size;
  list_detach(slot);
  free_slots_.push_back(slot);
  --count_;
}

// -- public API --------------------------------------------------------------

common::Bytes LruCache::lookup(std::uint64_t key, common::SimTime now) {
  const std::size_t b = find_bucket(key);
  if (b == kNoBucket) {
    ++misses_;
    return -1;
  }
  const std::int32_t slot = buckets_[b].slot;
  Entry& e = slab_[static_cast<std::size_t>(slot)];
  if (e.expires_at <= now) {
    ++expirations_;
    ++misses_;
    remove_slot(slot);
    return -1;
  }
  ++hits_;
  if (head_ != slot) {  // promote to MRU
    list_detach(slot);
    list_push_front(slot);
  }
  return e.size;
}

common::Bytes LruCache::lookup_stale(std::uint64_t key) {
  const std::size_t b = find_bucket(key);
  if (b == kNoBucket) {
    ++misses_;
    return -1;
  }
  const std::int32_t slot = buckets_[b].slot;
  Entry& e = slab_[static_cast<std::size_t>(slot)];
  // Freshness deliberately not checked: in serve-stale mode any copy beats
  // an error page.  The entry stays cached so repeated degraded hits keep
  // working until the tier recovers and a fresh copy replaces it.
  ++hits_;
  if (head_ != slot) {  // promote to MRU
    list_detach(slot);
    list_push_front(slot);
  }
  return e.size;
}

bool LruCache::contains(std::uint64_t key, common::SimTime now) const {
  const std::size_t b = find_bucket(key);
  if (b == kNoBucket) return false;
  return slab_[static_cast<std::size_t>(buckets_[b].slot)].expires_at > now;
}

bool LruCache::insert(std::uint64_t key, common::Bytes size,
                      common::SimTime expires_at) {
  assert(size >= 0);
  if (size > high_bytes()) return false;
  // One probe serves both outcomes: it either finds the existing entry or
  // stops at the empty bucket where the key belongs.
  const std::size_t home = hash_key(key) & bucket_mask_;
  std::size_t b = home;
  while (buckets_[b].slot >= 0 && buckets_[b].key != key) {
    b = (b + 1) & bucket_mask_;
  }
  if (buckets_[b].slot >= 0) {
    // Refresh: update size and freshness in place and promote.
    const std::int32_t slot = buckets_[b].slot;
    Entry& e = slab_[static_cast<std::size_t>(slot)];
    used_ += size - e.size;
    e.size = size;
    e.expires_at = expires_at;
    if (head_ != slot) {
      list_detach(slot);
      list_push_front(slot);
    }
  } else {
    const std::int32_t slot = slot_acquire();
    Entry& e = slab_[static_cast<std::size_t>(slot)];
    e.key = key;
    e.size = size;
    e.expires_at = expires_at;
    list_push_front(slot);
    // Grow near 70% load so probe clusters stay short.  The rehash walk
    // re-files the whole recency list — new entry included — so the probe
    // position found above is only used when no growth happens.
    if ((count_ + 1) * 10 >= buckets_.size() * 7) {
      rehash(buckets_.size() * 2);
    } else {
      buckets_[b] = Bucket{key, slot,
                           static_cast<std::uint32_t>((b - home) &
                                                      bucket_mask_)};
      e.bucket = static_cast<std::uint32_t>(b);
    }
    used_ += size;
    ++count_;
  }
  if (used_ > high_bytes()) evict_to(low_bytes());
  return true;
}

bool LruCache::erase(std::uint64_t key) {
  const std::size_t b = find_bucket(key);
  if (b == kNoBucket) return false;
  remove_slot(buckets_[b].slot);
  return true;
}

void LruCache::clear() {
  // Keep the slab and bucket array for reuse; only reset the bookkeeping.
  slab_.clear();
  free_slots_.clear();
  for (Bucket& b : buckets_) b.slot = -1;
  head_ = -1;
  tail_ = -1;
  count_ = 0;
  used_ = 0;
}

void LruCache::set_capacity(common::Bytes capacity) {
  assert(capacity >= 0);
  capacity_ = capacity;
  if (used_ > high_bytes()) evict_to(low_bytes());
}

void LruCache::set_watermarks(int low_percent, int high_percent) {
  assert(low_percent > 0 && low_percent <= 100);
  assert(high_percent > 0 && high_percent <= 100);
  swap_low_ = low_percent;
  swap_high_ = high_percent;
  if (used_ > high_bytes()) evict_to(low_bytes());
}

double LruCache::hit_ratio() const {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                   : 0.0;
}

void LruCache::evict_to(common::Bytes limit) {
  while (used_ > limit && tail_ >= 0) {
    remove_slot(tail_);
    ++evictions_;
  }
}

}  // namespace ah::webstack
