#include "sim/event_queue.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

std::uint32_t EventQueue::claim_slot() {
  if (free_slots_.empty()) {
    nodes_.push_back(Node{});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t n = free_slots_.back();
  free_slots_.pop_back();
  return n;
}

EventId EventQueue::insert(std::uint32_t n, common::SimTime time) {
  Node& node = nodes_[n];
  node.time = time;
  const EventId id = (static_cast<EventId>(node.generation) << 32) | n;
  ++size_;
  place(n);
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Only events still pending can be cancelled; already-fired or already-
  // cancelled ids are a no-op so callers need not track event lifetimes.
  if (!is_pending(id)) return false;
  const std::uint32_t n = slot_of(id);
  Node& node = nodes_[n];
  // The node sits where place() would put it against the current cursor
  // (see the file comment), so its list follows from its tick alone.
  const std::uint64_t tick = tick_of(node.time);
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
  node.fn.reset();
  // Generation wrap after 2^32 reuses of one slot is accepted: a caller
  // would need to hold an id across four billion pushes into the same slot
  // to see a false match.
  ++node.generation;
  free_slots_.push_back(n);
  --size_;
  return true;
}

void EventQueue::append(List& list, std::uint32_t n) {
  nodes_[n].prev = list.tail;
  nodes_[n].next = kNil;
  if (list.tail == kNil) {
    list.head = n;
  } else {
    nodes_[list.tail].next = n;
  }
  list.tail = n;
}

void EventQueue::unlink(List& list, std::uint32_t n) {
  const Node& node = nodes_[n];
  if (node.prev == kNil) {
    list.head = node.next;
  } else {
    nodes_[node.prev].next = node.next;
  }
  if (node.next == kNil) {
    list.tail = node.prev;
  } else {
    nodes_[node.next].prev = node.prev;
  }
}

void EventQueue::place(std::uint32_t n) {
  const std::uint64_t tick = tick_of(nodes_[n].time);
  if (tick <= cursor_) {
    // At or behind the drain point (same-tick reschedules, or pushes after
    // the cursor peeked ahead of virtual time): joins the ready list.
    ready_insert(n);
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
  append(wheel.buckets[idx], n);
  wheel.occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void EventQueue::ready_insert(std::uint32_t n) {
  const common::SimTime t = nodes_[n].time;
  if (ready_.tail == kNil || nodes_[ready_.tail].time <= t) {
    append(ready_, n);  // common case: at or after every queued time
    return;
  }
  // Walk to the first strictly-later node (upper bound), so same-time
  // events keep push order.  Rare path: only pushes that land behind an
  // already-loaded ready list get here, and that list spans one tick.
  std::uint32_t prev = kNil;
  std::uint32_t cur = ready_.head;
  while (cur != kNil && nodes_[cur].time <= t) {
    prev = cur;
    cur = nodes_[cur].next;
  }
  assert(cur != kNil);  // the tail is strictly later, so we stop before it
  nodes_[n].prev = prev;
  nodes_[n].next = cur;
  nodes_[cur].prev = n;
  if (prev == kNil) {
    ready_.head = n;
  } else {
    nodes_[prev].next = n;
  }
}

common::SimTime EventQueue::next_time() {
  if (ready_.head == kNil) advance();
  return nodes_[ready_.head].time;
}

EventQueue::Entry EventQueue::pop() {
  if (ready_.head == kNil) advance();
  const std::uint32_t n = ready_.head;
  Node& node = nodes_[n];
  unlink(ready_, n);
  const EventId id = (static_cast<EventId>(node.generation) << 32) | n;
  ++node.generation;  // retire the id; the slot is free for reuse
  free_slots_.push_back(n);
  --size_;
  return Entry{node.time, id, std::move(node.fn)};
}

void EventQueue::advance() {
  assert(ready_.head == kNil && size_ > 0);
  // Level 0: the next populated one-tick bucket in the current 256-tick
  // block.  Buckets at or below the cursor's digit are empty (drained or
  // never fillable), so the scan starts one past it.
  if (const int idx = next_occupied(0, (cursor_ & kIndexMask) + 1);
      idx >= 0) {
    const auto b = static_cast<std::size_t>(idx);
    cursor_ = (cursor_ & ~kIndexMask) | static_cast<std::uint64_t>(idx);
    Wheel& wheel = wheels_[0];
    ready_ = wheel.buckets[b];  // whole-list splice: one tick's FIFO run
    wheel.buckets[b] = List{};
    wheel.occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    return;
  }
  // Block exhausted: the next events sit in the lowest populated higher
  // bucket, or, with every wheel empty, in the overflow list.  Every level
  // below that source is empty, so its earliest tick is the next one.
  List* source = &overflow_;
  for (std::size_t level = 1; level < kLevels; ++level) {
    const std::uint64_t cur = (cursor_ >> (level * kBucketBits)) & kIndexMask;
    const int idx = next_occupied(level, cur + 1);
    if (idx < 0) continue;
    const auto b = static_cast<std::size_t>(idx);
    Wheel& wheel = wheels_[level];
    source = &wheel.buckets[b];
    wheel.occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    break;
  }
  const std::uint32_t head = source->head;
  *source = List{};
  assert(head != kNil);
  // Jump the cursor to the earliest tick and re-place the nodes in stored
  // order: that tick's nodes form the ready list, the rest land in lower
  // buckets that are provably empty (overflow nodes of later epochs go back
  // to the overflow list), so FIFO ties survive.
  std::uint64_t earliest = ~std::uint64_t{0};
  for (std::uint32_t n = head; n != kNil; n = nodes_[n].next) {
    earliest = std::min(earliest, tick_of(nodes_[n].time));
  }
  cursor_ = earliest;
  std::uint32_t n = head;
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
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
