// Test-only callable that counts what happens to it on its way to a run.
//
// MoveCounter objects bump shared counters when one is constructed
// (directly or by a move), moved, destroyed or invoked.  Its
// counters sit behind one pointer, so it fits any InlineFunction buffer
// (EventFn's 48 bytes, Resource::Completion's 16), and its move
// constructor is nothrow, so it is stored inline rather than on the heap.
// A test can then pin how often a closure is moved between being handed
// to the scheduler and being run.
#pragma once

namespace ah::test {

struct MoveCounts {
  int constructed = 0;  // every object, including moved-to ones
  int moves = 0;
  int destroyed = 0;
  int runs = 0;
};

class MoveCounter {
 public:
  explicit MoveCounter(MoveCounts* counts) : counts_(counts) {
    ++counts_->constructed;
  }
  MoveCounter(MoveCounter&& other) noexcept : counts_(other.counts_) {
    ++counts_->constructed;
    ++counts_->moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() { ++counts_->destroyed; }

  void operator()() { ++counts_->runs; }

 private:
  MoveCounts* counts_;
};

}  // namespace ah::test
