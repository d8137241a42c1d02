// Asserts that an Experiment hands every work line one item-popularity
// table instead of building one per line.
//
// A global operator-new/delete hook keeps an exact live-heap count (it
// adds and subtracts malloc_usable_size() of every allocation), so the
// test can weigh the tables an Experiment builds.  This test lives in its
// own executable because the hook is process-global.
#include <gtest/gtest.h>

#include <malloc.h>  // malloc_usable_size (glibc)

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/experiment.hpp"
#include "core/model_immutable.hpp"
#include "core/system_model.hpp"
#include "tpcw/zipf.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return operator new(n); }

// The replacement operator new above allocates with malloc, so freeing with
// std::free is the matching deallocation; GCC cannot see through the
// replacement and reports a false mismatched-new-delete pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop

namespace ah::core {
namespace {

constexpr std::size_t kLines = 8;

Experiment::Config experiment_config() {
  Experiment::Config config;
  config.browsers = static_cast<int>(kLines) * 50;
  return config;
}

/// Live heap one popularity table at the experiment's item scale holds.
std::int64_t table_bytes() {
  const std::int64_t before = live_bytes();
  const auto table = std::make_shared<const tpcw::ZipfSampler>(
      experiment_config().item_count, tpcw::Workload::kZipfAlpha);
  return live_bytes() - before;
}

/// Live heap an Experiment over an eight-line model allocates.  With
/// `layer_items` > 0 the model carries a shared immutable layer whose
/// popularity table covers that many items.
std::int64_t experiment_bytes(std::uint64_t layer_items) {
  SystemModel::Config topology;
  topology.lines.assign(kLines, SystemModel::LineSpec{});
  if (layer_items > 0) {
    Experiment::Config layer_experiment = experiment_config();
    layer_experiment.item_count = layer_items;
    topology.shared = make_model_immutable(topology, layer_experiment);
  }
  SystemModel system(topology);
  const std::int64_t before = live_bytes();
  const Experiment experiment(system, experiment_config());
  return live_bytes() - before;
}

/// Expects `built` to be one table's worth of live heap.  malloc may hand
/// out a reused chunk a few bytes larger than asked, so allow a small
/// slack; a second table (or one per line) is far outside it.
void expect_one_table(std::int64_t built) {
  const std::int64_t table = table_bytes();
  ASSERT_GT(table, 100'000);  // ~120 KB at the TPC-W 10k item scale
  EXPECT_NEAR(static_cast<double>(built), static_cast<double>(table),
              static_cast<double>(table) / 8.0);
}

TEST(SharedPopularityTest, LinesSampleOneTable) {
  // The model's matching table serves every line; without it the
  // experiment builds exactly one table for all eight lines.  Everything
  // else it allocates is the same either way.
  const std::uint64_t items = experiment_config().item_count;
  const std::int64_t with_layer = experiment_bytes(items);
  expect_one_table(experiment_bytes(0) - with_layer);
}

TEST(SharedPopularityTest, MismatchedModelTableIsReplacedOnce) {
  // A shared table at another item scale cannot serve this experiment; it
  // builds one of its own, again for all lines together.
  const std::uint64_t items = experiment_config().item_count;
  const std::int64_t with_layer = experiment_bytes(items);
  expect_one_table(experiment_bytes(items / 2) - with_layer);
}

}  // namespace
}  // namespace ah::core
