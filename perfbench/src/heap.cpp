#include "heap.hpp"

#include <malloc.h>  // malloc_usable_size (glibc)

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
std::atomic<std::int64_t> g_baseline{0};
std::atomic<std::uint64_t> g_allocations{0};

void track(void* p) {
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}

void untrack(void* p) {
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

}  // namespace

namespace perfbench::heap {

std::int64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
std::int64_t baseline_bytes() {
  return g_baseline.load(std::memory_order_relaxed);
}
void reset_peak() {
  g_baseline.store(live_bytes(), std::memory_order_relaxed);
  g_peak.store(live_bytes(), std::memory_order_relaxed);
}
std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench::heap

// gcc pairs the malloc/aligned_alloc in these replacements with the free()
// in the replaced delete and flags a mismatch; glibc free accepts both.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size > 0 ? size : 1)) {
    track(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) {
    track(p);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  untrack(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

#pragma GCC diagnostic pop
