#include "webstack/app_server.hpp"

#include <gtest/gtest.h>

#include <deque>

namespace ah::webstack {
namespace {

using common::SimTime;

class AppServerTest : public ::testing::Test {
 protected:
  AppServerTest() : node_(sim_, 0, "a0") {}

  DbQueryFn stub_db(SimTime latency = SimTime::millis(5)) {
    return [this, latency](const DbQuery&, cluster::Node&, DbResultFn done) {
      ++db_queries_;
      sim_.schedule(latency, [done = &parked_.emplace_back(done)] {
        (*done)(DbResult{true});
      });
    };
  }

  static RequestProfile servlet_profile(int selects = 0) {
    RequestProfile p;
    p.name = "servlet";
    p.cacheable = false;
    p.response_bytes = 8192;
    p.app_cpu = SimTime::millis(5);
    p.queries[0] = selects;
    return p;
  }

  Request make_request(const RequestProfile& profile) {
    Request r;
    r.id = next_id_++;
    r.profile = &profile;
    r.object_id = r.id;
    r.response_bytes = profile.response_bytes;
    r.issued_at = sim_.now();
    return r;
  }

  sim::Simulator sim_;
  cluster::Node node_;
  /// Continuations the database stub holds until it replies (a DbResultFn
  /// is wider than an event closure).
  std::deque<DbResultFn> parked_;
  int db_queries_ = 0;
  std::uint64_t next_id_ = 1;
};

TEST_F(AppServerTest, ServesSimpleRequest) {
  AppServer app(sim_, node_, stub_db(), AppParams{});
  const auto profile = servlet_profile();
  Response out;
  app.handle(make_request(profile), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.origin, Response::Origin::kApp);
  EXPECT_EQ(app.stats().served, 1u);
  EXPECT_EQ(db_queries_, 0);
}

TEST_F(AppServerTest, IssuesConfiguredQueryCount) {
  AppServer app(sim_, node_, stub_db(), AppParams{});
  const auto profile = servlet_profile(3);
  Response out;
  app.handle(make_request(profile), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.origin, Response::Origin::kDb);
  EXPECT_EQ(db_queries_, 3);
  EXPECT_EQ(app.stats().db_queries, 3u);
}

TEST_F(AppServerTest, MixedQueryClassesAllIssued) {
  AppServer app(sim_, node_, stub_db(), AppParams{});
  RequestProfile profile = servlet_profile();
  profile.queries[0] = 2;  // selects
  profile.queries[1] = 1;  // join
  profile.queries[2] = 2;  // updates
  profile.queries[3] = 1;  // insert
  Response out;
  app.handle(make_request(profile), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(db_queries_, 6);
}

TEST_F(AppServerTest, HttpQueueOverflowRejects) {
  AppParams params;
  params.max_processors = 1;
  params.accept_count = 1;
  AppServer app(sim_, node_, stub_db(SimTime::millis(50)), params);
  const auto profile = servlet_profile(1);
  int ok = 0;
  int errors = 0;
  auto record = [&](const Response& r) { r.ok ? ++ok : ++errors; };
  app.handle(make_request(profile), record);  // takes the thread
  app.handle(make_request(profile), record);  // queues
  app.handle(make_request(profile), record);  // rejected
  sim_.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(app.stats().rejected_http, 1u);
}

TEST_F(AppServerTest, AjpOverflowReleasesHttpThread) {
  AppParams params;
  params.max_processors = 10;
  params.accept_count = 10;
  params.ajp_max_processors = 1;
  params.ajp_accept_count = 0;  // no AJP waiting room
  AppServer app(sim_, node_, stub_db(SimTime::millis(50)), params);
  const auto profile = servlet_profile(1);
  int errors = 0;
  int ok = 0;
  auto record = [&](const Response& r) { r.ok ? ++ok : ++errors; };
  app.handle(make_request(profile), record);
  app.handle(make_request(profile), record);
  sim_.run();
  EXPECT_EQ(ok + errors, 2);
  EXPECT_EQ(app.stats().rejected_ajp, static_cast<std::uint64_t>(errors));
  // All HTTP threads must have been released.
  EXPECT_EQ(app.http_pool().in_use(), 0);
  EXPECT_EQ(app.ajp_pool().in_use(), 0);
}

TEST_F(AppServerTest, ThreadGrowthChargesMemory) {
  AppParams params;
  params.min_processors = 1;
  params.max_processors = 8;
  AppServer app(sim_, node_, stub_db(SimTime::millis(20)), params);
  const auto before = node_.memory_used();
  const auto profile = servlet_profile(1);
  for (int i = 0; i < 4; ++i) {
    app.handle(make_request(profile), [](const Response&) {});
  }
  sim_.run_until(SimTime::millis(1));
  EXPECT_GT(node_.memory_used(), before);
  EXPECT_GT(app.stats().threads_spawned, 0u);
}

TEST_F(AppServerTest, BiggerBufferMeansFewerSyscallsFasterIo) {
  AppParams small;
  small.buffer_size = 512;
  AppParams big;
  big.buffer_size = 65536;
  AppServer app_small(sim_, node_, stub_db(), small);
  AppServer app_big(sim_, node_, stub_db(), big);

  RequestProfile profile = servlet_profile();
  profile.response_bytes = 64 * 1024;
  profile.app_cpu = SimTime::zero();

  SimTime small_done;
  app_small.handle(make_request(profile),
                   [&](const Response&) { small_done = sim_.now(); });
  sim_.run();
  const SimTime t0 = sim_.now();
  SimTime big_done;
  app_big.handle(make_request(profile),
                 [&](const Response&) { big_done = sim_.now(); });
  sim_.run();
  EXPECT_GT(small_done - SimTime::zero(), big_done - t0);
}

TEST_F(AppServerTest, ReconfigureResizesPools) {
  AppServer app(sim_, node_, stub_db(), AppParams{});
  AppParams bigger;
  bigger.max_processors = 200;
  bigger.ajp_max_processors = 150;
  app.reconfigure(bigger);
  EXPECT_EQ(app.http_pool().slots(), 200);
  EXPECT_EQ(app.ajp_pool().slots(), 150);
}

TEST_F(AppServerTest, InactiveRejects) {
  AppServer app(sim_, node_, stub_db(), AppParams{});
  app.set_active(false);
  Response out;
  const auto profile = servlet_profile();
  app.handle(make_request(profile), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_FALSE(out.ok);
}

TEST_F(AppServerTest, DeactivateReleasesMemory) {
  AppServer app(sim_, node_, stub_db(), AppParams{});
  const auto active_memory = node_.memory_used();
  app.set_active(false);
  EXPECT_LT(node_.memory_used(), active_memory);
}

TEST_F(AppServerTest, DbErrorPropagatesAndReleasesThreads) {
  DbQueryFn failing = [](const DbQuery&, cluster::Node&, DbResultFn done) {
    done(DbResult{false});
  };
  AppServer app(sim_, node_, std::move(failing), AppParams{});
  const auto profile = servlet_profile(2);
  Response out;
  app.handle(make_request(profile), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(app.http_pool().in_use(), 0);
  EXPECT_EQ(app.ajp_pool().in_use(), 0);
}

TEST_F(AppServerTest, ConcurrencyBoundedByMaxProcessors) {
  AppParams params;
  params.max_processors = 3;
  params.accept_count = 100;
  AppServer app(sim_, node_, stub_db(SimTime::millis(100)), params);
  const auto profile = servlet_profile(1);
  for (int i = 0; i < 10; ++i) {
    app.handle(make_request(profile), [](const Response&) {});
  }
  EXPECT_LE(app.http_pool().in_use(), 3);
  sim_.run();
  EXPECT_EQ(app.stats().served, 10u);
}

}  // namespace
}  // namespace ah::webstack
