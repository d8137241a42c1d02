// Property-style sweeps across the tunable-parameter catalogue: the
// qualitative response directions the tuner relies on must hold for every
// value in a parameter's range, not just the defaults the unit tests pin.
#include <gtest/gtest.h>

#include "../support/parked.hpp"

#include "webstack/db_server.hpp"
#include "webstack/proxy_server.hpp"

namespace ah::webstack {
namespace {

using common::SimTime;

// -- Database monotonicity ----------------------------------------------

/// Runs `count` queries of one class against a fresh DbServer configured by
/// `params` and returns the total completion time.
SimTime db_total_time(const DbParams& params, QueryClass cls, int count,
                      std::uint64_t seed = 17) {
  sim::Simulator sim;
  cluster::Node node(sim, 0, "db");
  DbServer db(sim, node, params, seed);
  SimTime last = SimTime::zero();
  for (int i = 0; i < count; ++i) {
    DbQuery query;
    query.cls = cls;
    query.table_id = static_cast<std::uint64_t>(i % 8);
    query.result_bytes = 1024;
    db.execute(query, [&](const DbResult& r) {
      EXPECT_TRUE(r.ok);
      last = sim.now();
    });
  }
  sim.run();
  return last;
}

class BinlogCacheSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BinlogCacheSweep, LargerCacheNeverSlowsUpdates) {
  DbParams small;
  small.binlog_cache_size = GetParam();
  DbParams large;
  large.binlog_cache_size = GetParam() * 8;
  const auto t_small = db_total_time(small, QueryClass::kUpdate, 150);
  const auto t_large = db_total_time(large, QueryClass::kUpdate, 150);
  // Monotone response direction; the tolerance absorbs the lognormal
  // transaction-size jitter (spill thresholds make different runs spill
  // different transactions).
  EXPECT_LE(t_large.as_seconds(), t_small.as_seconds() * 1.15)
      << "binlog_cache_size=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, BinlogCacheSweep,
                         ::testing::Values(4096, 16384, 32768, 131072));

class TableCacheSweep : public ::testing::TestWithParam<int> {};

TEST_P(TableCacheSweep, LargerTableCacheNeverIncreasesMisses) {
  auto run = [](int table_cache) {
    sim::Simulator sim;
    cluster::Node node(sim, 0, "db");
    DbParams params;
    params.table_cache = table_cache;
    params.thread_concurrency = 64;
    params.max_connections = 64;
    DbServer db(sim, node, params, 23);
    for (int i = 0; i < 300; ++i) {
      DbQuery query;
      query.cls = QueryClass::kSelectSimple;
      query.table_id = static_cast<std::uint64_t>(i % 8);
      db.execute(query, [](const DbResult&) {});
    }
    sim.run();
    return db.stats().table_cache_misses;
  };
  const auto misses_small = run(GetParam());
  const auto misses_large = run(GetParam() * 8);
  EXPECT_LE(misses_large, misses_small) << "table_cache=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableCacheSweep,
                         ::testing::Values(16, 32, 64, 128));

class ThreadConcurrencySweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadConcurrencySweep, MoreExecutorsNeverSlowBatch) {
  // table_cache must be roomy here: raising thread_con with the default
  // table_cache increases descriptor pressure and can legitimately slow
  // the batch — the coupling that makes the paper tune thread_con and
  // table_cache together (see TableCacheSweep for that direction).
  DbParams low;
  low.thread_concurrency = GetParam();
  low.table_cache = 2048;
  DbParams high;
  high.thread_concurrency = GetParam() * 4;
  high.table_cache = 2048;
  const auto t_low = db_total_time(low, QueryClass::kSelectSimple, 120);
  const auto t_high = db_total_time(high, QueryClass::kSelectSimple, 120);
  EXPECT_LE(t_high.as_seconds(), t_low.as_seconds() * 1.05)
      << "thread_con=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Concurrency, ThreadConcurrencySweep,
                         ::testing::Values(1, 2, 5, 10));

// -- Proxy cache response directions --------------------------------------

struct ProxyCacheCase {
  common::Bytes cache_mem;
  common::Bytes max_in_mem;
};

class ProxyCacheSweep : public ::testing::TestWithParam<ProxyCacheCase> {};

TEST_P(ProxyCacheSweep, MemoryHitsNeverDecreaseWithBiggerCache) {
  auto run = [](const ProxyCacheCase& cache_case) {
    sim::Simulator sim;
    cluster::Node node(sim, 0, "p");
    ProxyParams params;
    params.cache_mem = cache_case.cache_mem;
    params.maximum_object_size_in_memory = cache_case.max_in_mem;
    ProxyServer proxy(
        sim, node,
        [&sim](const Request& r, cluster::Node&, ResponseFn done) {
          sim.schedule(SimTime::millis(5),
                       [bytes = r.response_bytes,
                        done = test::park(std::move(done))]() mutable {
            (*done)(Response{true, Response::Origin::kApp, bytes});
          });
        },
        params);
    static RequestProfile profile = [] {
      RequestProfile p;
      p.name = "page";
      p.cacheable = true;
      p.proxy_cpu = SimTime::micros(200);
      return p;
    }();
    // 600 requests over 50 objects of ~10 KB, Zipf-ish skew via modulo
    // powers.
    std::uint64_t id = 1;
    for (int i = 0; i < 600; ++i) {
      Request request;
      request.id = id++;
      request.profile = &profile;
      request.object_id = static_cast<std::uint64_t>((i * i) % 50);
      request.response_bytes = 10 * 1024;
      proxy.handle(request, [](const Response&) {});
      sim.run();
    }
    return proxy.stats().mem_hits;
  };

  const ProxyCacheCase base = GetParam();
  const ProxyCacheCase bigger{base.cache_mem * 4, base.max_in_mem * 4};
  EXPECT_GE(run(bigger), run(base))
      << "cache_mem=" << base.cache_mem << " max_in_mem=" << base.max_in_mem;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ProxyCacheSweep,
    ::testing::Values(ProxyCacheCase{256 * 1024, 4 * 1024},
                      ProxyCacheCase{1024 * 1024, 8 * 1024},
                      ProxyCacheCase{4 * 1024 * 1024, 16 * 1024}));

// -- Swap watermarks: the paper's negative finding -------------------------

class SwapWatermarkSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SwapWatermarkSweep, WatermarksAreNearInert) {
  auto run = [](int low, int high) {
    sim::Simulator sim;
    cluster::Node node(sim, 0, "p");
    ProxyParams params;
    params.cache_swap_low = low;
    params.cache_swap_high = high;
    ProxyServer proxy(
        sim, node,
        [&sim](const Request& r, cluster::Node&, ResponseFn done) {
          sim.schedule(SimTime::millis(5),
                       [bytes = r.response_bytes,
                        done = test::park(std::move(done))]() mutable {
            (*done)(Response{true, Response::Origin::kApp, bytes});
          });
        },
        params);
    static RequestProfile profile = [] {
      RequestProfile p;
      p.name = "page";
      p.cacheable = true;
      p.proxy_cpu = SimTime::micros(200);
      return p;
    }();
    for (int i = 0; i < 400; ++i) {
      Request request;
      request.id = static_cast<std::uint64_t>(i + 1);
      request.profile = &profile;
      request.object_id = static_cast<std::uint64_t>(i % 60);
      request.response_bytes = 6 * 1024;
      proxy.handle(request, [](const Response&) {});
      sim.run();
    }
    return sim.now();
  };
  const auto [low, high] = GetParam();
  const auto t_default = run(90, 95);
  const auto t_other = run(low, high);
  // Within 5%: the knobs exist and work but do not move performance —
  // matching the paper's finding for cache_swap_low/high.
  EXPECT_NEAR(t_other.as_seconds() / t_default.as_seconds(), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Marks, SwapWatermarkSweep,
                         ::testing::Values(std::pair{50, 60},
                                           std::pair{70, 90},
                                           std::pair{94, 99}));

}  // namespace
}  // namespace ah::webstack
