// Growable circular FIFO with storage reuse.
//
// std::deque allocates and frees fixed-size chunks as elements cycle
// through, so a steady-state FIFO (a resource waiting line under load)
// still touches the allocator every few hundred operations.  RingBuffer
// keeps one power-of-two buffer that only ever grows; after warm-up,
// push/pop are allocation-free no matter how many elements have cycled.
//
// T must be default-constructible and move-assignable (the queues hold
// move-only InlineFunction closures).  pop_front() overwrites the vacated
// slot with a default-constructed T so captured resources are dropped as
// eagerly as a deque would have.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/analysis.hpp"

// Request/work queues cycle through this on every enqueue/dequeue.
AH_HOT_PATH_FILE;

namespace ah::common {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buffer_.size(); }

  void push_back(T value) {
    if (size_ == buffer_.size()) grow();
    buffer_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buffer_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    buffer_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Convenience: move the front element out and pop it.
  [[nodiscard]] T take_front() {
    T value = std::move(front());
    pop_front();
    return value;
  }

  /// Drops all elements; keeps the buffer for reuse.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      buffer_[(head_ + i) & mask_] = T{};
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_capacity = buffer_.empty() ? 8 : buffer_.size() * 2;
    std::vector<T> bigger(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buffer_[(head_ + i) & mask_]);
    }
    buffer_ = std::move(bigger);
    head_ = 0;
    mask_ = new_capacity - 1;
  }

  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace ah::common
