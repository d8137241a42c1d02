// Live-heap accounting for the benchmark binary.
//
// heap.cpp replaces the global operator new/delete (the bench_scale
// method): every allocation adds malloc_usable_size() to a live-byte
// counter and bumps an allocation count, every release subtracts.  The
// counts are exact and independent of allocator free-list retention.
#pragma once

#include <cstdint>

namespace perfbench::heap {

/// Bytes currently allocated through operator new.
[[nodiscard]] std::int64_t live_bytes();
/// Highest live_bytes() since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes();
/// live_bytes() at the last reset_peak().
[[nodiscard]] std::int64_t baseline_bytes();
/// Restarts peak tracking from the current live size.
void reset_peak();
/// Allocations made through operator new since program start.
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench::heap
