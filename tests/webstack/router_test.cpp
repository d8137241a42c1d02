#include "webstack/router.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "obs/histogram.hpp"

namespace ah::webstack {
namespace {

using common::SimTime;

/// A full miniature deployment: 1 proxy node, N app nodes, 1 db node.
class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : net_(sim_),
        frontend_(sim_, cluster::BalancePolicy::kRoundRobin),
        app_router_(net_, cluster::BalancePolicy::kRoundRobin),
        db_router_(net_, cluster::BalancePolicy::kRoundRobin) {}

  cluster::Node& add_node(const std::string& name) {
    nodes_.push_back(std::make_unique<cluster::Node>(
        sim_, static_cast<cluster::NodeId>(nodes_.size()), name));
    return *nodes_.back();
  }

  AppServer& add_app(cluster::Node& node) {
    apps_.push_back(std::make_unique<AppServer>(
        sim_, node,
        [this](const DbQuery& q, cluster::Node& from, DbResultFn done) {
          db_router_.route(q, from, std::move(done));
        },
        AppParams{}));
    app_router_.add_backend(apps_.back().get());
    return *apps_.back();
  }

  DbServer& add_db(cluster::Node& node) {
    dbs_.push_back(std::make_unique<DbServer>(sim_, node, DbParams{}));
    db_router_.add_backend(dbs_.back().get());
    return *dbs_.back();
  }

  ProxyServer& add_proxy(cluster::Node& node) {
    proxies_.push_back(std::make_unique<ProxyServer>(
        sim_, node,
        [this](const Request& r, cluster::Node& from, ResponseFn done) {
          app_router_.route(r, from, std::move(done));
        },
        ProxyParams{}));
    frontend_.add_backend(proxies_.back().get());
    return *proxies_.back();
  }

  Request make_request(bool needs_db) {
    static RequestProfile dynamic_db = [] {
      RequestProfile p;
      p.name = "dyn-db";
      p.cacheable = false;
      p.app_cpu = SimTime::millis(2);
      p.queries[0] = 2;
      return p;
    }();
    static RequestProfile dynamic_nodb = [] {
      RequestProfile p;
      p.name = "dyn";
      p.cacheable = false;
      p.app_cpu = SimTime::millis(2);
      return p;
    }();
    Request r;
    r.id = next_id_++;
    r.profile = needs_db ? &dynamic_db : &dynamic_nodb;
    r.object_id = r.id;
    r.response_bytes = 8192;
    r.issued_at = sim_.now();
    return r;
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

TEST_F(RouterTest, EndToEndThroughAllTiers) {
  add_proxy(add_node("p0"));
  add_app(add_node("a0"));
  add_db(add_node("d0"));
  Response out;
  frontend_.route(make_request(true), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.origin, Response::Origin::kDb);
  EXPECT_EQ(dbs_[0]->stats().queries, 2u);
}

TEST_F(RouterTest, EmptyFrontendFailsFast) {
  Response out{true, Response::Origin::kApp, 1};
  frontend_.route(make_request(false), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_FALSE(out.ok);
}

TEST_F(RouterTest, EmptyAppTierFailsThroughProxy) {
  add_proxy(add_node("p0"));
  Response out;
  frontend_.route(make_request(false), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_FALSE(out.ok);
}

TEST_F(RouterTest, EmptyDbTierFailsThroughApp) {
  add_proxy(add_node("p0"));
  add_app(add_node("a0"));
  Response out;
  frontend_.route(make_request(true), [&](const Response& r) { out = r; });
  sim_.run();
  EXPECT_FALSE(out.ok);
}

TEST_F(RouterTest, RoundRobinSpreadsAcrossAppNodes) {
  add_proxy(add_node("p0"));
  add_app(add_node("a0"));
  add_app(add_node("a1"));
  add_db(add_node("d0"));
  for (int i = 0; i < 10; ++i) {
    frontend_.route(make_request(false), [](const Response&) {});
    sim_.run();
  }
  EXPECT_EQ(apps_[0]->stats().served, 5u);
  EXPECT_EQ(apps_[1]->stats().served, 5u);
}

TEST_F(RouterTest, RemoveBackendStopsNewTraffic) {
  add_proxy(add_node("p0"));
  add_app(add_node("a0"));
  add_app(add_node("a1"));
  add_db(add_node("d0"));
  EXPECT_TRUE(app_router_.remove_backend(apps_[0].get()));
  for (int i = 0; i < 4; ++i) {
    frontend_.route(make_request(false), [](const Response&) {});
    sim_.run();
  }
  EXPECT_EQ(apps_[0]->stats().served, 0u);
  EXPECT_EQ(apps_[1]->stats().served, 4u);
}

TEST_F(RouterTest, RemoveUnknownBackendReturnsFalse) {
  add_proxy(add_node("p0"));
  auto& node = add_node("ax");
  AppServer orphan(
      sim_, node,
      [](const DbQuery&, cluster::Node&, DbResultFn done) {
        done(DbResult{true});
      },
      AppParams{});
  EXPECT_FALSE(app_router_.remove_backend(&orphan));
}

TEST_F(RouterTest, NetworkChargesSenderNics) {
  add_proxy(add_node("p0"));
  add_app(add_node("a0"));
  add_db(add_node("d0"));
  frontend_.route(make_request(true), [](const Response&) {});
  sim_.run();
  // proxy NIC: forward to app + response to client; app NIC: 2 queries +
  // response; db NIC: 2 results.
  EXPECT_EQ(nodes_[0]->nic().messages(), 2u);
  EXPECT_EQ(nodes_[1]->nic().messages(), 3u);
  EXPECT_EQ(nodes_[2]->nic().messages(), 2u);
  for (int i = 0; i < 3; ++i) EXPECT_GT(nodes_[i]->nic().busy_integral(), 0);
}

TEST_F(RouterTest, ClientLatencyAddsRoundTrip) {
  add_proxy(add_node("p0"));
  add_app(add_node("a0"));
  add_db(add_node("d0"));
  SimTime done_at;
  frontend_.route(make_request(false),
                  [&](const Response&) { done_at = sim_.now(); });
  sim_.run();
  // At least two client-latency hops (300us each) plus service.
  EXPECT_GE(done_at, SimTime::micros(600));
}

TEST_F(RouterTest, BackendCountsTrackAddRemove) {
  EXPECT_EQ(frontend_.backend_count(), 0u);
  auto& proxy = add_proxy(add_node("p0"));
  EXPECT_EQ(frontend_.backend_count(), 1u);
  EXPECT_TRUE(frontend_.remove_backend(&proxy));
  EXPECT_EQ(frontend_.backend_count(), 0u);
}

// -- One hop at a time ---------------------------------------------------
// Fast-fail, the hop timeout and the hop histogram must behave the same on
// all three routers, so each property is a typed test over the three.

/// What `done` saw for one routed message.
struct Outcome {
  int calls = 0;
  bool ok = true;
  SimTime at;
};

template <typename Router>
class HopTest : public RouterTest {
 protected:
  static constexpr bool kFrontend = std::is_same_v<Router, FrontendRouter>;
  static constexpr bool kApp = std::is_same_v<Router, AppTierRouter>;

  /// Builds the smallest stack behind the router under test and returns
  /// the node of its one backend.  The app and db hops are routed from a
  /// separate client node.
  cluster::Node& build() {
    client_ = &add_node("c0");
    if constexpr (kFrontend) {
      cluster::Node& node = add_node("p0");
      add_proxy(node);
      add_app(add_node("a0"));
      return node;
    } else if constexpr (kApp) {
      cluster::Node& node = add_node("a0");
      add_app(node);
      return node;
    } else {
      cluster::Node& node = add_node("d0");
      add_db(node);
      return node;
    }
  }

  Router& router() {
    if constexpr (kFrontend) {
      return frontend_;
    } else if constexpr (kApp) {
      return app_router_;
    } else {
      return db_router_;
    }
  }

  /// Routes one message through the router under test alone.
  void route(Outcome& out) {
    auto record = [this, &out](bool ok) {
      ++out.calls;
      out.ok = ok;
      out.at = sim_.now();
    };
    if constexpr (kFrontend) {
      frontend_.route(make_request(false),
                      [record](const Response& r) mutable { record(r.ok); });
    } else if constexpr (kApp) {
      app_router_.route(make_request(false), *client_,
                        [record](const Response& r) mutable { record(r.ok); });
    } else {
      db_router_.route(DbQuery{}, *client_,
                       [record](const DbResult& r) mutable { record(r.ok); });
    }
  }

  cluster::Node* client_ = nullptr;
};

using HopRouters =
    ::testing::Types<FrontendRouter, AppTierRouter, DbTierRouter>;
TYPED_TEST_SUITE(HopTest, HopRouters);

/// Shorter than any healthy hop here is long, far shorter than a hop on a
/// backend slowed by kSlowdown.
constexpr SimTime kHopTimeout = SimTime::millis(100);
constexpr double kSlowdown = 1000.0;

TYPED_TEST(HopTest, AllBackendsMarkedDownFailsBeforeReturning) {
  this->build().set_marked_up(false);
  const std::size_t pending = this->sim_.pending_events();
  Outcome out;
  this->route(out);
  EXPECT_EQ(out.calls, 1);  // answered inside route()
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(this->router().stats().fast_fails, 1u);
  EXPECT_EQ(this->sim_.pending_events(), pending);  // nothing scheduled
}

TYPED_TEST(HopTest, TimeoutShorterThanServiceFailsOnceThenCallIsReused) {
  cluster::Node& backend = this->build();
  this->router().set_hop_timeout(kHopTimeout);
  backend.set_fault_slowdown(kSlowdown);
  // The hop's clock starts when its message leaves.  A browser request
  // reaches FrontendRouter::route() kClientLatency after it left, and the
  // frontend's clock (and timeout) still start at the issue.
  const SimTime routed_at = this->sim_.now();
  if constexpr (TestFixture::kFrontend) {
    this->sim_.run_until(routed_at + kClientLatency);
  }
  Outcome slow;
  this->route(slow);
  this->sim_.run();  // the timeout fires, then the late reply comes back
  EXPECT_EQ(slow.calls, 1);
  EXPECT_FALSE(slow.ok);
  EXPECT_EQ(slow.at, routed_at + kHopTimeout);
  EXPECT_EQ(this->router().stats().timeouts, 1u);

  // The next request reuses the released Call and is not touched by the
  // first one's late reply.
  backend.set_fault_slowdown(1.0);
  Outcome next;
  this->route(next);
  this->sim_.run();
  EXPECT_EQ(next.calls, 1);
  EXPECT_TRUE(next.ok);
  EXPECT_EQ(slow.calls, 1);
  EXPECT_EQ(this->router().stats().timeouts, 1u);
}

TYPED_TEST(HopTest, HistogramRecordsEveryFinishedHop) {
  cluster::Node& backend = this->build();
  obs::Histogram hops;
  this->router().set_hop_histogram(&hops);
  this->router().set_hop_timeout(kHopTimeout);
  backend.set_fault_slowdown(kSlowdown);
  Outcome slow;
  this->route(slow);
  this->sim_.run();
  EXPECT_EQ(hops.count(), 1u);  // the timed-out hop, once
  EXPECT_EQ(hops.max_us(),
            static_cast<std::uint64_t>(kHopTimeout.as_micros()));

  backend.set_fault_slowdown(1.0);
  Outcome fast;
  this->route(fast);
  this->sim_.run();
  ASSERT_TRUE(fast.ok);
  EXPECT_EQ(hops.count(), 2u);
  EXPECT_LT(hops.min_us(), hops.max_us());
}

TEST_F(RouterTest, ProxyRefusingAtArrivalWithHopTimeoutAnswersOnce) {
  // route() runs at the request's arrival, so a stopped proxy refuses it
  // inside route(); the timeout armed there must die with the call.
  cluster::Node& node = add_node("p0");
  ProxyServer& proxy = add_proxy(node);
  add_app(add_node("a0"));
  add_db(add_node("d0"));
  frontend_.set_hop_timeout(kHopTimeout);
  proxy.set_active(false);
  Outcome refused;
  frontend_.route(make_request(false), [&](const Response& r) {
    ++refused.calls;
    refused.ok = r.ok;
    refused.at = sim_.now();
  });
  sim_.run();
  EXPECT_EQ(refused.calls, 1);
  EXPECT_FALSE(refused.ok);
  // The error reply crosses the proxy's NIC (128 B), then the client leg.
  EXPECT_EQ(refused.at, node.nic_time(128) + kClientLatency);
  EXPECT_EQ(sim_.now(), refused.at);  // no timeout left to fire later
  EXPECT_EQ(frontend_.stats().timeouts, 0u);

  // The released call serves the next request.
  proxy.set_active(true);
  Outcome served;
  frontend_.route(make_request(false), [&](const Response& r) {
    ++served.calls;
    served.ok = r.ok;
  });
  sim_.run();
  EXPECT_EQ(served.calls, 1);
  EXPECT_TRUE(served.ok);
  EXPECT_EQ(refused.calls, 1);
  EXPECT_EQ(frontend_.stats().timeouts, 0u);
}

}  // namespace
}  // namespace ah::webstack
