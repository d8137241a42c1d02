// Pending-event set for the discrete-event simulator.
//
// A hierarchical calendar queue (timer wheel) sized for a sparse timeline:
// the cluster model fires one event every 0.2–0.6 ms of simulated time, so
// level 0 does not resolve single ticks.  Four levels of 256 buckets; a
// level-0 bucket spans 2^8 ticks (µs) and each level above is 256 times
// coarser, so a level-l bucket spans 2^(8+8l) ticks and the wheels reach
// 2^40 µs (~12.7 days) ahead of the cursor.  Events beyond that horizon wait
// in an overflow list.  The cursor always sits on the last tick of the
// current level-0 bucket, and the ready run is that bucket's events, sorted
// by (time, push order).  When the ready run empties, the level-0 occupancy
// bitmap yields the next populated bucket, whose sorted list becomes the
// ready run whole.  When level 0's 2^16-tick span is exhausted, advance()
// jumps: it takes the lowest populated higher bucket (or, with every wheel
// empty, the overflow list), moves the cursor straight to the last tick of
// the level-0 bucket holding the earliest of its nodes and re-files them, so
// that bucket's nodes become the ready run at once and the rest fall into
// lower levels.  A source holding a single node becomes the ready run
// without re-filing.
//
// Storage is one slab of 64-byte records, one cache line per event: the
// time, the generation, the two list links and the EventFn.  The slab
// doubles as the id slot table; buckets, the ready run, the overflow list
// and the free list are intrusive lists threaded through it (the records
// are their nodes), so moving an event between levels relinks indices and
// never touches its closure.  EventFn is plain data
// (common/inline_function.hpp), so push() writes the closure's bytes into
// the record and run_next() copies them out.  Once the slab has grown to
// the peak pending population the queue performs no heap allocation at
// all, no matter which buckets future times touch.
//
// Closure lifetime: run_next() unlinks the earliest record, retires its id,
// copies the closure out and frees the slot, and only then calls the copy.
// A running closure may therefore push (possibly into the slot it just
// vacated, under a new generation) and cancel anything, its own id
// included: that id is retired already, so cancelling it is a no-op.  A
// closure that throws leaves nothing to clean up.
//
// Determinism: equal-time events pop in push order, with no sequence
// numbers stored.  Every level-0 bucket, and the ready run, is kept sorted:
// sorted_insert() places a node after the last node whose time is at or
// before its own, walking back from the tail.  That yields (time, push
// order) because each list receives nodes in push order.  A higher-level
// bucket only ever gains nodes in push order: from push() (later pushes
// append later), or from a jump, which re-files a single bucket's (or the
// overflow list's) nodes in their stored order into buckets that are
// provably empty at that moment: when a jump happens, every level below the
// source bucket's is empty.  So every list holds its nodes in push order
// (higher levels) or in (time, push order) (level 0 and the ready run), and
// pop order equals a (time, sequence) binary heap's.
//
// Cancellation is eager: cancel() unlinks the record and frees its slot at
// once, so a cancelled timer costs no memory and is never re-filed.  The
// record's list needs no stored location; it follows from its tick and the
// cursor exactly as in place(): at or behind the cursor means the ready
// run, otherwise the highest base-256 digit above the level-0 grain in
// which tick and cursor differ names the wheel level (overflow beyond the
// last one).  The mapping holds for as long as the record is stored: the
// cursor only ever moves to the last tick of the next populated level-0
// bucket, whose nodes become the ready run (or are re-filed), and every
// node it leaves in place still differs from it in the same highest digit.
// Unlinking never reorders the nodes that remain, so cancellation cannot
// change pop order.
//
// Event ids are generation-stamped slot handles: the low 32 bits index the
// slab, the high 32 bits carry that slot's generation at push time.
// cancel() is then a single array probe (no hash set), and a recycled slot
// can never be confused with the event that used it before — the stale
// id's generation no longer matches.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

using EventId = std::uint64_t;
/// Event closure: up to 32 bytes of trivially copyable capture, stored in
/// the event's record.  A larger or owning capture is a compile error.
using EventFn = common::InlineFunction<void(), 32>;

class EventQueue {
 public:
  /// Inserts an event whose closure is `fn`, written into its record;
  /// returns its id (usable with `cancel`).  Ids are never zero, so 0 is
  /// safe as a caller-side "no event" sentinel.
  template <typename F>
  EventId push(common::SimTime time, F&& fn) {
    const std::uint32_t n = claim_slot();
    // Built straight in its record; a freed slot holds nothing to destroy.
    ::new (static_cast<void*>(&records_[n].fn)) EventFn(std::forward<F>(fn));
    return insert(n, time);
  }

  /// Removes a pending event and frees its slot at once.  Returns false
  /// when the id is unknown, already fired or already cancelled (a no-op,
  /// not an error).
  bool cancel(EventId id);

  /// True when no events are pending.
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Time of the earliest pending event.  Precondition: !empty().
  [[nodiscard]] common::SimTime next_time() {
    if (ready_.head == kNil) advance();
    return records_[ready_.head].time;
  }

  /// Removes the earliest pending event, sets `now` to its time, frees its
  /// slot and then runs a copy of its closure (see the file comment for
  /// what a running closure may do).  Precondition: !empty().
  void run_next(common::SimTime& now) {
    if (ready_.head == kNil) advance();
    const std::uint32_t n = ready_.head;
    Record& record = records_[n];
    ready_.head = record.next;
    if (record.next == kNil) {
      ready_.tail = kNil;
    } else {
      records_[record.next].prev = kNil;
    }
    ++record.generation;  // retire the id before the closure can see it
    --size_;
    now = record.time;
    EventFn fn = record.fn;
    release(n);
    fn();
  }

  /// Number of pending events, which is also the number of slab slots in
  /// use: a cancelled event holds none.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// A level-0 bucket spans 2^kGrainBits ticks.
  static constexpr std::size_t kGrainBits = 8;
  static constexpr std::uint64_t kGrainMask =
      (std::uint64_t{1} << kGrainBits) - 1;
  /// 2^kBucketBits buckets per level; level l buckets span 2^(8+8l) ticks.
  static constexpr std::size_t kBucketBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kLevels = 4;
  static constexpr std::uint64_t kIndexMask = kBuckets - 1;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One pending event: its id slot, its list links and its closure, in one
  /// cache line.
  struct alignas(64) Record {
    common::SimTime time;
    std::uint32_t generation = 1;  // bumped on run/cancel; 0 never occurs
    std::uint32_t prev = kNil;     // kNil at a list's head
    std::uint32_t next = kNil;     // kNil at a list's tail; free-list link
    EventFn fn;
  };
  static_assert(sizeof(Record) == 64 && alignof(Record) == 64,
                "one cache line per event");

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
  /// Clamps negative times to tick 0; sorted_insert() keeps their relative
  /// order by actual SimTime.
  [[nodiscard]] static std::uint64_t tick_of(common::SimTime time) {
    const std::int64_t us = time.as_micros();
    return us <= 0 ? 0 : static_cast<std::uint64_t>(us);
  }
  [[nodiscard]] static constexpr std::size_t shift_of(std::size_t level) {
    return kGrainBits + level * kBucketBits;
  }
  /// True when `id` refers to a pending event.
  [[nodiscard]] bool is_pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < records_.size() &&
           records_[slot].generation == generation_of(id);
  }
  /// Wheel level of a tick strictly after the cursor: the highest digit
  /// (base 2^kBucketBits, above the grain) in which the two differ.  The
  /// cursor's grain bits are all ones, so a later tick differs above them.
  /// kLevels or more means the overflow list.
  [[nodiscard]] std::size_t level_of(std::uint64_t tick) const {
    return (static_cast<std::size_t>(std::bit_width(tick ^ cursor_)) - 1 -
            kGrainBits) /
           kBucketBits;
  }
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t tick,
                                             std::size_t level) {
    return static_cast<std::size_t>((tick >> shift_of(level)) & kIndexMask);
  }

  /// A free slot, growing the slab when none is left.
  std::uint32_t claim_slot();
  /// Returns slot `n` to the free list.  Its closure is plain data and
  /// needs no destruction.
  void release(std::uint32_t n) {
    records_[n].next = free_head_;
    free_head_ = n;
  }
  /// Files the claimed slot `n` (closure already in place) at `time`.
  EventId insert(std::uint32_t n, common::SimTime time);
  void append(List& list, std::uint32_t n);
  void unlink(List& list, std::uint32_t n);
  /// Inserts after the last record whose time is at or before `n`'s,
  /// keeping a list of records received in push order sorted by (time,
  /// push order).  Walks back from the tail, so in-order arrivals cost O(1).
  void sorted_insert(List& list, std::uint32_t n);
  /// Routes a record to the ready run, a wheel bucket, or the overflow list
  /// according to its tick's distance from the cursor.
  void place(std::uint32_t n);
  /// Moves the cursor to the next populated level-0 bucket and makes its
  /// records the ready run.  Precondition: the ready run is empty and
  /// !empty().
  void advance();
  /// Next set bucket index >= `from` at `level`, or -1.
  [[nodiscard]] int next_occupied(std::size_t level, std::uint64_t from) const;

  std::array<Wheel, kLevels> wheels_;
  List overflow_;
  /// The current level-0 bucket's events (plus late pushes before it),
  /// sorted by (time, push order).
  List ready_;
  /// The last tick of the current level-0 bucket: every stored record with
  /// a tick at or below it sits in the ready run.
  std::uint64_t cursor_ = kGrainMask;

  /// The slab: slot n is the id's low 32 bits.
  std::vector<Record> records_;
  /// Head of the free-slot list, threaded through Record::next.
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace ah::sim
