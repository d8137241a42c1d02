#include "webstack/db_server.hpp"

#include <gtest/gtest.h>

namespace ah::webstack {
namespace {

using common::SimTime;

class DbServerTest : public ::testing::Test {
 protected:
  DbServerTest() : node_(sim_, 0, "d0") {}

  DbQuery query(QueryClass cls, std::uint64_t table = 0) {
    DbQuery q;
    q.cls = cls;
    q.table_id = table;
    q.result_bytes = 1024;
    return q;
  }

  /// Executes one query to completion and returns the wall time it took.
  SimTime timed(DbServer& db, const DbQuery& q) {
    const SimTime start = sim_.now();
    SimTime end = start;
    db.execute(q, [&](const DbResult& r) {
      EXPECT_TRUE(r.ok);
      end = sim_.now();
    });
    sim_.run();
    return end - start;
  }

  sim::Simulator sim_;
  cluster::Node node_;
};

TEST_F(DbServerTest, ExecutesAllQueryClasses) {
  DbServer db(sim_, node_, DbParams{});
  int done = 0;
  for (int c = 0; c < kQueryClassCount; ++c) {
    db.execute(query(static_cast<QueryClass>(c)),
               [&](const DbResult& r) {
                 EXPECT_TRUE(r.ok);
                 ++done;
               });
  }
  sim_.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(db.stats().queries, 4u);
  for (int c = 0; c < kQueryClassCount; ++c) {
    EXPECT_EQ(db.stats().by_class[c], 1u);
  }
}

TEST_F(DbServerTest, JoinsSlowerThanSimpleSelects) {
  DbServer db(sim_, node_, DbParams{}, 7);
  SimTime select_total;
  SimTime join_total;
  for (int i = 0; i < 20; ++i) {
    select_total += timed(db, query(QueryClass::kSelectSimple));
    join_total += timed(db, query(QueryClass::kSelectJoin));
  }
  EXPECT_GT(join_total, select_total);
}

TEST_F(DbServerTest, ThreadConcurrencyLimitsExecutors) {
  DbParams params;
  params.thread_concurrency = 2;
  DbServer db(sim_, node_, params);
  for (int i = 0; i < 8; ++i) {
    db.execute(query(QueryClass::kSelectSimple), [](const DbResult&) {});
  }
  EXPECT_LE(db.executors().in_use(), 2);
  sim_.run();
  EXPECT_EQ(db.stats().queries, 8u);
}

TEST_F(DbServerTest, ConnectionsQueueBeyondLimit) {
  DbParams params;
  params.max_connections = 3;
  DbServer db(sim_, node_, params);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    db.execute(query(QueryClass::kSelectSimple),
               [&](const DbResult&) { ++done; });
  }
  EXPECT_LE(db.connections().in_use(), 3);
  sim_.run();
  EXPECT_EQ(done, 10);  // queued connections eventually serve
}

TEST_F(DbServerTest, SmallBinlogCacheSpills) {
  DbParams params;
  params.binlog_cache_size = 4096;  // far below the median txn volume
  DbServer db(sim_, node_, params, 11);
  for (int i = 0; i < 50; ++i) {
    db.execute(query(QueryClass::kUpdate), [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_GT(db.stats().binlog_spills, 40u);
}

TEST_F(DbServerTest, LargeBinlogCacheAvoidsSpills) {
  DbParams params;
  params.binlog_cache_size = 4 * 1024 * 1024;
  DbServer db(sim_, node_, params, 11);
  for (int i = 0; i < 50; ++i) {
    db.execute(query(QueryClass::kUpdate), [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_EQ(db.stats().binlog_spills, 0u);
}

TEST_F(DbServerTest, UpdatesFasterWithLargeBinlogCache) {
  DbParams small;
  small.binlog_cache_size = 4096;
  DbParams large;
  large.binlog_cache_size = 4 * 1024 * 1024;
  DbServer db_small(sim_, node_, small, 3);
  SimTime small_total;
  for (int i = 0; i < 30; ++i) {
    small_total += timed(db_small, query(QueryClass::kUpdate));
  }
  DbServer db_large(sim_, node_, large, 3);
  SimTime large_total;
  for (int i = 0; i < 30; ++i) {
    large_total += timed(db_large, query(QueryClass::kUpdate));
  }
  EXPECT_GT(small_total, large_total);
}

TEST_F(DbServerTest, JoinBufferFlatAboveFloor) {
  // The paper's negative finding: shrinking join_buffer_size from 8 MB to
  // ~400 KB does not change performance.
  DbParams big;
  big.join_buffer_size = 8388600;
  DbParams modest;
  modest.join_buffer_size = 407552;
  DbServer db_big(sim_, node_, big, 5);
  DbServer db_modest(sim_, node_, modest, 5);
  SimTime big_total;
  SimTime modest_total;
  for (int i = 0; i < 30; ++i) {
    big_total += timed(db_big, query(QueryClass::kSelectJoin));
    modest_total += timed(db_modest, query(QueryClass::kSelectJoin));
  }
  const double ratio = modest_total / big_total;
  EXPECT_NEAR(ratio, 1.0, 0.10);
}

TEST_F(DbServerTest, JoinBufferBelowFloorDegrades) {
  DbParams tiny;
  tiny.join_buffer_size = 131072;  // below the modelled floor
  DbParams modest;
  modest.join_buffer_size = 407552;
  DbServer db_tiny(sim_, node_, tiny, 5);
  DbServer db_modest(sim_, node_, modest, 5);
  SimTime tiny_total;
  SimTime modest_total;
  for (int i = 0; i < 30; ++i) {
    tiny_total += timed(db_tiny, query(QueryClass::kSelectJoin));
    modest_total += timed(db_modest, query(QueryClass::kSelectJoin));
  }
  EXPECT_GT(tiny_total, modest_total);
}

TEST_F(DbServerTest, DelayedInsertsBatch) {
  DbParams params;
  params.delayed_insert_limit = 10;
  DbServer db(sim_, node_, params);
  for (int i = 0; i < 25; ++i) {
    db.execute(query(QueryClass::kInsert), [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_EQ(db.stats().delayed_batches, 2u);  // two full batches of 10
}

TEST_F(DbServerTest, InsertQueueOverflowFallsBackToSync) {
  DbParams params;
  params.delayed_insert_limit = 1000;  // batches never trigger
  params.delayed_queue_size = 100;     // effective batch bound
  DbServer db(sim_, node_, params);
  for (int i = 0; i < 150; ++i) {
    db.execute(query(QueryClass::kInsert), [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_GT(db.stats().delayed_batches + db.stats().sync_inserts, 0u);
}

TEST_F(DbServerTest, TableCachePressureCausesMisses) {
  DbParams starved;
  starved.table_cache = 16;
  starved.thread_concurrency = 64;
  starved.max_connections = 64;
  DbServer db(sim_, node_, starved, 13);
  // Keep many connections active at once so descriptor demand exceeds the
  // table cache.
  for (int i = 0; i < 200; ++i) {
    db.execute(query(QueryClass::kSelectSimple, i % 8),
               [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_GT(db.stats().table_cache_misses, 0u);
}

TEST_F(DbServerTest, LargeTableCacheEliminatesMisses) {
  DbParams roomy;
  roomy.table_cache = 2048;
  roomy.thread_concurrency = 64;
  DbServer db(sim_, node_, roomy, 13);
  for (int i = 0; i < 200; ++i) {
    db.execute(query(QueryClass::kSelectSimple, i % 8),
               [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_EQ(db.stats().table_cache_misses, 0u);
}

TEST_F(DbServerTest, InactiveFails) {
  DbServer db(sim_, node_, DbParams{});
  db.set_active(false);
  bool ok = true;
  db.execute(query(QueryClass::kSelectSimple),
             [&](const DbResult& r) { ok = r.ok; });
  sim_.run();
  EXPECT_FALSE(ok);
}

TEST_F(DbServerTest, ReconfigureResizesPools) {
  DbServer db(sim_, node_, DbParams{});
  DbParams bigger;
  bigger.max_connections = 700;
  bigger.thread_concurrency = 80;
  db.reconfigure(bigger);
  EXPECT_EQ(db.connections().slots(), 700);
  EXPECT_EQ(db.executors().slots(), 80);
}

TEST_F(DbServerTest, MemoryReleasedAfterQuiescence) {
  DbServer db(sim_, node_, DbParams{});
  const auto idle = node_.memory_used();
  for (int i = 0; i < 5; ++i) {
    db.execute(query(QueryClass::kSelectJoin), [](const DbResult&) {});
  }
  sim_.run();
  EXPECT_EQ(node_.memory_used(), idle);  // per-query memory all returned
}

}  // namespace
}  // namespace ah::webstack
