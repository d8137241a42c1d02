// Asserts the zero-allocation property of the steady-state request path.
//
// A global operator-new hook counts heap allocations while a warmed-up
// miniature deployment (client -> frontend -> proxy -> app -> db and back)
// serves requests.  After warm-up every pool, ring buffer and cache slab has
// reached its high-water capacity, so a steady-state request must complete
// without a single heap allocation.  This test lives in its own executable
// because the hook is process-global.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "ctrl/admission_controller.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "webstack/router.hpp"

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_track.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return operator new(n); }

// The replacement operator new above allocates with malloc, so freeing with
// std::free is the matching deallocation; GCC cannot see through the
// replacement and reports a false mismatched-new-delete pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ah::webstack {
namespace {

using common::SimTime;

class ZeroAllocTest : public ::testing::Test {
 protected:
  ZeroAllocTest()
      : net_(sim_),
        frontend_(sim_, cluster::BalancePolicy::kRoundRobin),
        app_router_(net_, cluster::BalancePolicy::kRoundRobin),
        db_router_(net_, cluster::BalancePolicy::kRoundRobin) {}

  cluster::Node& add_node(const std::string& name) {
    nodes_.push_back(std::make_unique<cluster::Node>(
        sim_, static_cast<cluster::NodeId>(nodes_.size()), name));
    return *nodes_.back();
  }

  void build_cluster() {
    auto& pnode = add_node("p0");
    auto& anode = add_node("a0");
    auto& dnode = add_node("d0");
    dbs_.push_back(std::make_unique<DbServer>(sim_, dnode, DbParams{}));
    db_router_.add_backend(dbs_.back().get());
    apps_.push_back(std::make_unique<AppServer>(
        sim_, anode,
        [this](const DbQuery& q, cluster::Node& from, DbResultFn done) {
          db_router_.route(q, from, std::move(done));
        },
        AppParams{}));
    app_router_.add_backend(apps_.back().get());
    proxies_.push_back(std::make_unique<ProxyServer>(
        sim_, pnode,
        [this](const Request& r, cluster::Node& from, ResponseFn done) {
          app_router_.route(r, from, std::move(done));
        },
        ProxyParams{}));
    frontend_.add_backend(proxies_.back().get());
  }

  Request make_request(const RequestProfile& profile) {
    Request r;
    r.id = next_id_++;
    r.profile = &profile;
    r.object_id = r.id % 16;  // small working set => warm cache slab
    r.response_bytes = 8192;
    r.issued_at = sim_.now();
    return r;
  }

  /// Routes one request through the full stack and runs it to completion.
  /// Returns whether it succeeded.
  bool run_one(const RequestProfile& profile) {
    bool ok = false;
    frontend_.route(make_request(profile),
                    [&ok](const Response& r) { ok = r.ok; });
    sim_.run();
    return ok;
  }

  sim::Simulator sim_;
  cluster::Network net_;
  FrontendRouter frontend_;
  AppTierRouter app_router_;
  DbTierRouter db_router_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::vector<std::unique_ptr<ProxyServer>> proxies_;
  std::vector<std::unique_ptr<AppServer>> apps_;
  std::vector<std::unique_ptr<DbServer>> dbs_;
  std::uint64_t next_id_ = 1;
};

TEST_F(ZeroAllocTest, SteadyStateRequestPathDoesNotAllocate) {
  RequestProfile dynamic_db;
  dynamic_db.name = "dyn-db";
  dynamic_db.cacheable = false;
  dynamic_db.app_cpu = SimTime::millis(2);
  dynamic_db.queries[0] = 2;
  dynamic_db.queries[1] = 1;

  RequestProfile cacheable;
  cacheable.name = "static";
  cacheable.cacheable = true;
  cacheable.app_cpu = SimTime::millis(1);

  build_cluster();

  // Warm-up: grow every pool, ring buffer and cache structure to its
  // steady-state footprint.  The db server draws from its RNG, so different
  // branches (I/O, binlog, table miss) all get exercised.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(run_one(dynamic_db));
    ASSERT_TRUE(run_one(cacheable));
  }

  // Measure: the proxy -> app -> db round trip must be allocation-free.
  g_allocs.store(0);
  g_track.store(true);
  constexpr int kMeasured = 100;
  int served = 0;
  for (int i = 0; i < kMeasured; ++i) {
    if (run_one(dynamic_db)) ++served;
    if (run_one(cacheable)) ++served;
  }
  g_track.store(false);

  EXPECT_EQ(served, 2 * kMeasured);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state requests performed heap allocations";
}

TEST_F(ZeroAllocTest, AdmissionControlledPathDoesNotAllocate) {
  // Same steady-state property with the admission controller attached and
  // actively shedding: the per-request admit() hash, the observe() window
  // stores, the periodic control tick, and both shed outcomes (serve-stale
  // for cacheable traffic, fast-fail for the rest) must all be pure
  // arithmetic on pre-sized state.
  RequestProfile dynamic_db;
  dynamic_db.name = "dyn-db";
  dynamic_db.cacheable = false;
  dynamic_db.app_cpu = SimTime::millis(2);
  dynamic_db.queries[0] = 2;
  dynamic_db.queries[1] = 1;

  RequestProfile cacheable;
  cacheable.name = "static";
  cacheable.cacheable = true;
  cacheable.app_cpu = SimTime::millis(1);

  build_cluster();

  ctrl::AdmissionController::Config config;
  // Target far below the achievable latency: every window breaches, so the
  // loop walks the admit fraction down and keeps shedding throughout.
  config.target_p95 = SimTime::millis(1);
  ctrl::AdmissionController controller(sim_, config);
  proxies_.back()->set_admission(&controller,
                                 ProxyServer::ShedMode::kServeStale);

  // Each slice sends a burst: wide open, a control period then collects
  // four times the samples a window needs before the controller acts on it,
  // so it keeps acting until the admit fraction falls to a quarter.
  constexpr SimTime kSlice = SimTime::millis(250);
  constexpr int kSlicesPerPeriod = static_cast<int>(
      ctrl::AdmissionController::kPeriod.as_micros() / kSlice.as_micros());
  constexpr int kBurst = static_cast<int>(
      4 * ctrl::AdmissionController::kMinSamples) / kSlicesPerPeriod;

  // The controller re-arms a tick every period, so the event queue
  // never drains; advance in bounded slices instead of sim_.run().  Returns
  // how many of the slice's burst completed (served or shed).
  auto run_timed = [this, kSlice](const RequestProfile& profile) {
    int completed = 0;
    for (int b = 0; b < kBurst; ++b) {
      frontend_.route(make_request(profile),
                      [&completed](const Response&) { ++completed; });
    }
    sim_.run_until(sim_.now() + kSlice);
    return completed;
  };

  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(run_timed(cacheable), kBurst);
    ASSERT_EQ(run_timed(dynamic_db), kBurst);
  }
  ASSERT_LT(controller.admit_fraction(), 1.0);  // warm-up ended shedding

  const std::uint64_t shed_before = controller.shed();
  const std::uint64_t ticks_before = controller.ticks();
  g_allocs.store(0);
  g_track.store(true);
  constexpr int kMeasured = 100;
  int completed = 0;
  for (int i = 0; i < kMeasured; ++i) {
    completed += run_timed(cacheable);
    completed += run_timed(dynamic_db);
  }
  g_track.store(false);

  EXPECT_EQ(completed, 2 * kMeasured * kBurst);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "admission-controlled requests performed heap allocations";
  // Prove both controller paths actually ran during the measured window.
  EXPECT_GT(controller.shed(), shed_before);
  EXPECT_GT(controller.admitted(), 0u);
  EXPECT_GT(controller.ticks(), ticks_before);
}

TEST_F(ZeroAllocTest, CancelledHopTimeoutsDoNotAllocate) {
  // Every hop arms a timeout that its reply cancels.  The timeout outlasts
  // the whole run, so no timer ever reaches its tick: a cancelled timer
  // must hand its queue slot back at once.  The measured phase arms more
  // timers than the warm-up did, so a queue that kept cancelled timers
  // until their tick would have to grow its event storage here.
  RequestProfile dynamic_db;
  dynamic_db.name = "dyn-db";
  dynamic_db.cacheable = false;
  dynamic_db.app_cpu = SimTime::millis(2);
  dynamic_db.queries[0] = 2;
  dynamic_db.queries[1] = 1;

  build_cluster();
  const SimTime timeout = SimTime::seconds(3600);
  frontend_.set_hop_timeout(timeout);
  app_router_.set_hop_timeout(timeout);
  db_router_.set_hop_timeout(timeout);

  for (int i = 0; i < 50; ++i) ASSERT_TRUE(run_one(dynamic_db));

  g_allocs.store(0);
  g_track.store(true);
  constexpr int kMeasured = 200;
  int served = 0;
  for (int i = 0; i < kMeasured; ++i) {
    if (run_one(dynamic_db)) ++served;
  }
  g_track.store(false);

  EXPECT_EQ(served, kMeasured);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "cancelled hop timeouts performed heap allocations";
  // No timer fired: each one was cancelled by its reply.
  EXPECT_LT(sim_.now(), timeout);
  EXPECT_EQ(frontend_.stats().timeouts + app_router_.stats().timeouts +
                db_router_.stats().timeouts,
            0u);
  EXPECT_EQ(sim_.stored_events(), sim_.pending_events());
}

TEST_F(ZeroAllocTest, TelemetryRecordingDoesNotAllocate) {
  // Same steady-state property with the full telemetry layer switched on:
  // hop histograms on every router and a span recorder sampling every
  // request.  The trace slab is sized at construction and histogram octave
  // pages are faulted in during warm-up, so steady-state recording must be
  // pure stores/increments.
  RequestProfile dynamic_db;
  dynamic_db.name = "dyn-db";
  dynamic_db.cacheable = false;
  dynamic_db.app_cpu = SimTime::millis(2);
  dynamic_db.queries[0] = 2;
  dynamic_db.queries[1] = 1;

  build_cluster();

  obs::Histogram frontend_hist;
  obs::Histogram app_hist;
  obs::Histogram db_hist;
  frontend_.set_hop_histogram(&frontend_hist);
  app_router_.set_hop_histogram(&app_hist);
  db_router_.set_hop_histogram(&db_hist);
  // Capacity above the measured request count: the ring never wraps here,
  // but wrapping would also be allocation-free (modular cursor on a slab).
  obs::TraceRecorder trace(/*every_nth=*/1, /*capacity=*/1024);
  proxies_.back()->set_trace(&trace);
  apps_.back()->set_trace(&trace);
  dbs_.back()->set_trace(&trace);

  for (int i = 0; i < 200; ++i) ASSERT_TRUE(run_one(dynamic_db));

  const std::uint64_t hist_before = frontend_hist.count();
  const std::uint64_t spans_before = trace.recorded();
  g_allocs.store(0);
  g_track.store(true);
  constexpr int kMeasured = 100;
  int served = 0;
  for (int i = 0; i < kMeasured; ++i) {
    if (run_one(dynamic_db)) ++served;
  }
  g_track.store(false);

  EXPECT_EQ(served, kMeasured);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "telemetry recording performed heap allocations";
  // Prove the telemetry actually ran during the measured window.
  EXPECT_EQ(frontend_hist.count(), hist_before + kMeasured);
  EXPECT_EQ(app_hist.count(), frontend_hist.count());
  EXPECT_GE(trace.recorded(), spans_before + 3 * kMeasured);
}

}  // namespace
}  // namespace ah::webstack
