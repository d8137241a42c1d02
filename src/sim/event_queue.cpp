#include "sim/event_queue.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

AH_HOT_PATH_FILE;

namespace ah::sim {

std::uint32_t EventQueue::claim_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t n = free_head_;
    free_head_ = records_[n].next;
    return n;
  }
  const auto n = static_cast<std::uint32_t>(records_.size());
  // Growth only: once the slab holds the peak pending population every
  // slot comes from the free list.
  records_.emplace_back();
  return n;
}

EventId EventQueue::insert(std::uint32_t n, common::SimTime time) {
  Record& record = records_[n];
  record.time = time;
  const EventId id = (static_cast<EventId>(record.generation) << 32) | n;
  ++size_;
  place(n);
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Only events still pending can be cancelled; already-fired or already-
  // cancelled ids are a no-op so callers need not track event lifetimes.
  if (!is_pending(id)) return false;
  const std::uint32_t n = slot_of(id);
  // The record sits where place() would put it against the current cursor
  // (see the file comment), so its list follows from its tick alone.
  const std::uint64_t tick = tick_of(records_[n].time);
  if (tick <= cursor_) {
    unlink(ready_, n);
  } else if (const std::size_t level = level_of(tick); level >= kLevels) {
    unlink(overflow_, n);
  } else {
    const std::size_t idx = bucket_of(tick, level);
    Wheel& wheel = wheels_[level];
    unlink(wheel.buckets[idx], n);
    if (wheel.buckets[idx].head == kNil) {
      wheel.occupied[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
  }
  // Generation wrap after 2^32 reuses of one slot is accepted: a caller
  // would need to hold an id across four billion pushes into the same slot
  // to see a false match.
  ++records_[n].generation;
  --size_;
  release(n);
  return true;
}

void EventQueue::append(List& list, std::uint32_t n) {
  records_[n].prev = list.tail;
  records_[n].next = kNil;
  if (list.tail == kNil) {
    list.head = n;
  } else {
    records_[list.tail].next = n;
  }
  list.tail = n;
}

void EventQueue::unlink(List& list, std::uint32_t n) {
  const Record& record = records_[n];
  if (record.prev == kNil) {
    list.head = record.next;
  } else {
    records_[record.prev].next = record.next;
  }
  if (record.next == kNil) {
    list.tail = record.prev;
  } else {
    records_[record.next].prev = record.prev;
  }
}

void EventQueue::sorted_insert(List& list, std::uint32_t n) {
  const common::SimTime t = records_[n].time;
  // The last record at or before t (upper bound from the back), so same-time
  // events keep push order.  Most arrivals are at or after the tail.
  std::uint32_t prev = list.tail;
  while (prev != kNil && records_[prev].time > t) prev = records_[prev].prev;
  const std::uint32_t next = prev == kNil ? list.head : records_[prev].next;
  records_[n].prev = prev;
  records_[n].next = next;
  if (prev == kNil) {
    list.head = n;
  } else {
    records_[prev].next = n;
  }
  if (next == kNil) {
    list.tail = n;
  } else {
    records_[next].prev = n;
  }
}

void EventQueue::place(std::uint32_t n) {
  const std::uint64_t tick = tick_of(records_[n].time);
  if (tick <= cursor_) {
    // In or behind the current level-0 bucket (near-term pushes, or pushes
    // after the cursor peeked ahead of virtual time): joins the ready run.
    sorted_insert(ready_, n);
    return;
  }
  // All digits above the level match the cursor's, so the bucket is
  // reached before any jump could disturb it.
  const std::size_t level = level_of(tick);
  if (level >= kLevels) {
    append(overflow_, n);
    return;
  }
  const std::size_t idx = bucket_of(tick, level);
  Wheel& wheel = wheels_[level];
  if (level == 0) {
    sorted_insert(wheel.buckets[idx], n);
  } else {
    append(wheel.buckets[idx], n);
  }
  wheel.occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void EventQueue::advance() {
  assert(ready_.head == kNil && size_ > 0);
  // Level 0: the next populated bucket in the current 2^16-tick span.
  // Buckets at or below the cursor's digit are empty (drained or never
  // fillable), so the scan starts one past it.
  const std::uint64_t digit = (cursor_ >> kGrainBits) & kIndexMask;
  if (const int idx = next_occupied(0, digit + 1); idx >= 0) {
    const auto b = static_cast<std::size_t>(idx);
    // Same digits above level 0, and the grain bits stay all ones.
    cursor_ += (static_cast<std::uint64_t>(b) - digit) << kGrainBits;
    Wheel& wheel = wheels_[0];
    ready_ = wheel.buckets[b];  // whole-list splice: already sorted
    wheel.buckets[b] = List{};
    wheel.occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    return;
  }
  // Level 0 exhausted: the next events sit in the lowest populated higher
  // bucket, or, with every wheel empty, in the overflow list.  Every level
  // below that source is empty, so its earliest tick is the next one.
  List* source = &overflow_;
  for (std::size_t level = 1; level < kLevels; ++level) {
    const std::uint64_t cur = (cursor_ >> shift_of(level)) & kIndexMask;
    const int idx = next_occupied(level, cur + 1);
    if (idx < 0) continue;
    const auto b = static_cast<std::size_t>(idx);
    Wheel& wheel = wheels_[level];
    source = &wheel.buckets[b];
    wheel.occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    break;
  }
  const List taken = *source;
  *source = List{};
  assert(taken.head != kNil);
  if (taken.head == taken.tail) {
    // A lone record is its own ready run.
    cursor_ = tick_of(records_[taken.head].time) | kGrainMask;
    ready_ = taken;
    return;
  }
  // Jump the cursor to the last tick of the earliest record's level-0 bucket
  // and re-file the nodes in stored order: that bucket's nodes form the
  // ready run, the rest land in lower buckets that are provably empty
  // (overflow nodes of later epochs go back to the overflow list), so FIFO
  // ties survive.
  std::uint64_t earliest = ~std::uint64_t{0};
  for (std::uint32_t n = taken.head; n != kNil; n = records_[n].next) {
    earliest = std::min(earliest, tick_of(records_[n].time));
  }
  cursor_ = earliest | kGrainMask;
  std::uint32_t n = taken.head;
  while (n != kNil) {
    const std::uint32_t next = records_[n].next;
    place(n);
    n = next;
  }
}

int EventQueue::next_occupied(std::size_t level, std::uint64_t from) const {
  if (from >= kBuckets) return -1;
  const auto& occupied = wheels_[level].occupied;
  std::size_t word = static_cast<std::size_t>(from >> 6);
  std::uint64_t bits = occupied[word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(
          (word << 6) | static_cast<std::size_t>(std::countr_zero(bits)));
    }
    if (++word >= occupied.size()) return -1;
    bits = occupied[word];
  }
}

}  // namespace ah::sim
