// Pending-event set for the discrete-event simulator.
//
// A hierarchical calendar queue (timer wheel): four levels of 256 buckets
// whose widths grow by a factor of 256 per level, so one structure spans
// 2^32 µs (~71 minutes) of future time at O(1) amortised push/pop; events
// beyond that horizon wait in an overflow list that is folded back in one
// 2^32 µs epoch at a time.  A cursor tracks the tick (µs) the queue has
// drained up to; the ready list holds the events of the cursor's tick in
// FIFO order.  When it empties, the level-0 occupancy bitmap yields the
// next populated one-tick bucket directly, and when a 256-tick block is
// exhausted a bucket from the lowest-populated higher level cascades down.
//
// Storage is a single slab of nodes that doubles as the id slot table;
// buckets, the ready run and the overflow are intrusive doubly-linked
// lists threaded through the slab.  Moving an event between levels is a
// pointer splice — the closure payload never moves — and once the slab has
// grown to the peak pending population the queue performs no heap
// allocation at all, no matter which buckets future times touch.
//
// Determinism: equal-time events pop in push order.  The wheel preserves
// this without sequence numbers because every list involved only ever
// gains nodes in push order — a bucket receives nodes either from `push`
// (later pushes append later) or from a cascade, which distributes a
// single parent bucket's nodes in their stored order into child buckets
// that are provably empty at that moment.  Pop order is therefore
// byte-identical to the previous (time, sequence) binary heap.
//
// Cancellation is eager: cancel() unlinks the node, destroys its closure
// and frees its slot at once, so a cancelled timer costs no memory and is
// never cascaded.  The node's list needs no stored location; it follows
// from the node's tick and the cursor exactly as in place(): at or behind
// the cursor means the ready run, otherwise the highest base-256 digit in
// which tick and cursor differ names the wheel level (overflow beyond the
// last one).  The mapping holds for as long as the node is stored: the
// cursor only ever moves into the next populated bucket, whose nodes are
// re-placed (or become the ready run), and every node it leaves in place
// still differs from it in the same highest digit.  Unlinking never
// reorders the nodes that remain, so cancellation cannot change pop order.
//
// Event ids are generation-stamped slot handles: the low 32 bits index the
// slab, the high 32 bits carry that slot's generation at push time.
// cancel() is then a single array probe (no hash set), and a recycled slot
// can never be confused with the event that used it before — the stale
// id's generation no longer matches.  Closures are stored in a
// small-buffer-optimised InlineFunction, so scheduling a typical
// `[this, ...]` capture performs no heap allocation.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

using EventId = std::uint64_t;
/// Event closures up to 48 bytes are stored inline (move-only).  SBO is
/// *required*: an oversized capture is a compile error, never a silent
/// per-event heap allocation.
using EventFn =
    common::InlineFunction<void(), 48, common::SboPolicy::kRequired>;

class EventQueue {
 public:
  struct Entry {
    common::SimTime time;
    EventId id;
    EventFn fn;
  };

  /// Inserts an event; returns its id (usable with `cancel`).  Ids are
  /// never zero, so 0 is safe as a caller-side "no event" sentinel.
  EventId push(common::SimTime time, EventFn fn);

  /// Removes a pending event and frees its slot at once.  Returns false
  /// when the id is unknown, already fired or already cancelled (a no-op,
  /// not an error).
  bool cancel(EventId id);

  /// True when no events are pending.
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Time of the earliest pending event.  Precondition: !empty().
  [[nodiscard]] common::SimTime next_time();

  /// Removes and returns the earliest pending event.  Precondition:
  /// !empty().
  Entry pop();

  /// Number of pending events, which is also the number of slab slots in
  /// use: a cancelled event holds none.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// 2^kBucketBits buckets per level; level l buckets span 2^(8l) ticks.
  static constexpr std::size_t kBucketBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kLevels = 4;
  static constexpr std::uint64_t kIndexMask = kBuckets - 1;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Slab node: event payload + id slot + intrusive list links.  The slab
  /// index is the id's low 32 bits, so one array serves as event storage,
  /// slot table and list arena at once.
  struct Node {
    common::SimTime time;
    EventFn fn;
    std::uint32_t generation = 1;  // bumped on pop/cancel; 0 never occurs
    std::uint32_t prev = kNil;     // kNil at a list's head
    std::uint32_t next = kNil;     // kNil at a list's tail
  };

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  struct Wheel {
    std::array<List, kBuckets> buckets;
    /// One bit per bucket; makes "next populated bucket" a word scan.
    std::array<std::uint64_t, kBuckets / 64> occupied{};
  };

  [[nodiscard]] static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  /// Clamps negative times to tick 0; the ready-list insert keeps their
  /// relative order by actual SimTime.
  [[nodiscard]] static std::uint64_t tick_of(common::SimTime time) {
    const std::int64_t us = time.as_micros();
    return us <= 0 ? 0 : static_cast<std::uint64_t>(us);
  }
  /// True when `id` refers to a pending event.
  [[nodiscard]] bool is_pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < nodes_.size() &&
           nodes_[slot].generation == generation_of(id);
  }
  /// Wheel level of a tick strictly after the cursor: the highest digit
  /// (base 2^kBucketBits) in which the two differ.  kLevels or more means
  /// the overflow list.
  [[nodiscard]] std::size_t level_of(std::uint64_t tick) const {
    return (static_cast<std::size_t>(std::bit_width(tick ^ cursor_)) - 1) /
           kBucketBits;
  }
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t tick,
                                             std::size_t level) {
    return static_cast<std::size_t>((tick >> (level * kBucketBits)) &
                                    kIndexMask);
  }

  void append(List& list, std::uint32_t n);
  void unlink(List& list, std::uint32_t n);
  /// Routes a node to the ready list, a wheel bucket, or the overflow list
  /// according to its tick's distance from the cursor.
  void place(std::uint32_t n);
  /// Inserts into the ready list keeping (time, push-order) sorted; the
  /// common case (at or after every queued time) is an O(1) append.
  void ready_insert(std::uint32_t n);
  /// Advances the cursor to the next populated tick and loads it into the
  /// ready list.  Precondition: the ready list is empty and !empty().
  void advance();
  /// Folds the earliest 2^32 µs epoch of overflow nodes back into the
  /// wheels (in stored order, preserving FIFO ties).
  void drain_overflow_epoch();
  /// Next set bucket index >= `from` at `level`, or -1.
  [[nodiscard]] int next_occupied(std::size_t level, std::uint64_t from) const;

  std::array<Wheel, kLevels> wheels_;
  List overflow_;
  /// Events of the cursor's tick (plus late pushes at or before it), in
  /// pop order.
  List ready_;
  /// The tick the queue has drained up to: every stored node with a
  /// strictly smaller tick has been popped or sits in the ready list.
  std::uint64_t cursor_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
};

}  // namespace ah::sim
