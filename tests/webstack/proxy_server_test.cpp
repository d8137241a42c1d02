#include "webstack/proxy_server.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <type_traits>
#include <vector>

namespace ah::webstack {
namespace {

using common::SimTime;

// Continuations are plain data: pooled calls and queued events copy them
// as bytes.
static_assert(std::is_trivially_copyable_v<ResponseFn>);
static_assert(std::is_trivially_copyable_v<DbResultFn>);
static_assert(std::is_trivially_copyable_v<ForwardFn>);

class ProxyServerTest : public ::testing::Test {
 protected:
  ProxyServerTest() : node_(sim_, 0, "p0") {}

  /// Upstream stub: replies ok after a fixed delay; counts forwards.
  ForwardFn stub_upstream(common::Bytes reply_bytes = 8192,
                          SimTime delay = SimTime::millis(20)) {
    return [this, reply_bytes, delay](const Request&, cluster::Node&,
                                      ResponseFn done) {
      ++forwards_;
      sim_.schedule(delay, [reply_bytes, done = &parked_.emplace_back(done)] {
        (*done)(Response{true, Response::Origin::kApp, reply_bytes});
      });
    };
  }

  static RequestProfile cacheable_profile() {
    RequestProfile p;
    p.name = "static";
    p.cacheable = true;
    p.response_bytes = 8192;
    p.proxy_cpu = SimTime::micros(500);
    return p;
  }

  static RequestProfile dynamic_profile() {
    RequestProfile p;
    p.name = "dynamic";
    p.cacheable = false;
    p.response_bytes = 8192;
    p.proxy_cpu = SimTime::micros(500);
    return p;
  }

  Request make_request(const RequestProfile& profile, std::uint64_t object) {
    Request r;
    r.id = next_id_++;
    r.profile = &profile;
    r.object_id = object;
    r.response_bytes = profile.response_bytes;
    r.issued_at = sim_.now();
    return r;
  }

  Response serve(ProxyServer& proxy, const Request& request) {
    Response out;
    bool completed = false;
    proxy.handle(request, [&](const Response& r) {
      out = r;
      completed = true;
    });
    sim_.run();
    EXPECT_TRUE(completed);
    return out;
  }

  sim::Simulator sim_;
  cluster::Node node_;
  /// Continuations the upstream stub holds until it replies: a ResponseFn
  /// is wider than an event closure, so the event captures a pointer.
  std::deque<ResponseFn> parked_;
  int forwards_ = 0;
  std::uint64_t next_id_ = 1;
};

TEST_F(ProxyServerTest, NonCacheablePassesThrough) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto profile = dynamic_profile();
  const auto response = serve(proxy, make_request(profile, 1));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(forwards_, 1);
  EXPECT_EQ(proxy.stats().passthrough, 1u);
  EXPECT_EQ(proxy.stats().mem_hits, 0u);
}

TEST_F(ProxyServerTest, CacheableMissThenDiskHit) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto profile = cacheable_profile();
  serve(proxy, make_request(profile, 42));
  EXPECT_EQ(proxy.stats().misses_forwarded, 1u);
  const auto second = serve(proxy, make_request(profile, 42));
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(forwards_, 1);  // no second forward
  EXPECT_EQ(proxy.stats().disk_hits + proxy.stats().mem_hits, 1u);
}

TEST_F(ProxyServerTest, SmallObjectsServeFromMemory) {
  ProxyParams params;
  params.maximum_object_size_in_memory = 16 * 1024;  // raised limit
  ProxyServer proxy(sim_, node_, stub_upstream(4096), params);
  auto profile = cacheable_profile();
  profile.response_bytes = 4096;
  serve(proxy, make_request(profile, 7));
  const auto second = serve(proxy, make_request(profile, 7));
  EXPECT_EQ(second.origin, Response::Origin::kProxyMemory);
  EXPECT_EQ(proxy.stats().mem_hits, 1u);
}

TEST_F(ProxyServerTest, ObjectsAboveInMemoryLimitGoToDisk) {
  ProxyParams params;
  params.maximum_object_size_in_memory = 1024;  // everything is "too big"
  ProxyServer proxy(sim_, node_, stub_upstream(8192), params);
  const auto profile = cacheable_profile();
  serve(proxy, make_request(profile, 7));
  const auto second = serve(proxy, make_request(profile, 7));
  EXPECT_EQ(second.origin, Response::Origin::kProxyDisk);
}

TEST_F(ProxyServerTest, MinimumObjectSizeBlocksCaching) {
  ProxyParams params;
  params.minimum_object_size = 64 * 1024;  // bigger than any response
  ProxyServer proxy(sim_, node_, stub_upstream(), params);
  const auto profile = cacheable_profile();
  serve(proxy, make_request(profile, 7));
  serve(proxy, make_request(profile, 7));
  EXPECT_EQ(forwards_, 2);  // nothing was cached
  EXPECT_EQ(proxy.stats().misses_forwarded, 2u);
}

TEST_F(ProxyServerTest, MaximumObjectSizeBlocksDiskCaching) {
  ProxyParams params;
  params.maximum_object_size = 1024;  // responses exceed this
  params.maximum_object_size_in_memory = 512;
  ProxyServer proxy(sim_, node_, stub_upstream(8192), params);
  const auto profile = cacheable_profile();
  serve(proxy, make_request(profile, 7));
  serve(proxy, make_request(profile, 7));
  EXPECT_EQ(forwards_, 2);
}

TEST_F(ProxyServerTest, DiskHitPromotesToMemoryWhenAdmitted) {
  ProxyParams params;
  params.maximum_object_size_in_memory = 16 * 1024;
  ProxyServer proxy(sim_, node_, stub_upstream(8192), params);
  const auto profile = cacheable_profile();
  serve(proxy, make_request(profile, 7));   // miss -> cached (mem + disk)
  proxy.reconfigure(params);                // restart clears the mem cache
  serve(proxy, make_request(profile, 7));   // disk hit -> promoted
  const auto third = serve(proxy, make_request(profile, 7));
  EXPECT_EQ(third.origin, Response::Origin::kProxyMemory);
}

TEST_F(ProxyServerTest, ReconfigureKeepsDiskCache) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto profile = cacheable_profile();
  serve(proxy, make_request(profile, 7));
  proxy.reconfigure(ProxyParams{});
  EXPECT_EQ(proxy.memory_cache().object_count(), 0u);
  const auto after = serve(proxy, make_request(profile, 7));
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(forwards_, 1);  // still served locally (from disk)
}

TEST_F(ProxyServerTest, ReconfigureSwapsMemoryFootprint) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto before = node_.memory_used();
  ProxyParams bigger;
  bigger.cache_mem = 64LL * 1024 * 1024;
  proxy.reconfigure(bigger);
  EXPECT_GT(node_.memory_used(), before);
}

TEST_F(ProxyServerTest, InactiveRejects) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  proxy.set_active(false);
  const auto profile = dynamic_profile();
  const auto response = serve(proxy, make_request(profile, 1));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(proxy.stats().errors, 1u);
}

TEST_F(ProxyServerTest, DeactivateReleasesMemory) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto active_memory = node_.memory_used();
  proxy.set_active(false);
  EXPECT_LT(node_.memory_used(), active_memory);
  proxy.set_active(true);
  EXPECT_EQ(node_.memory_used(), active_memory);
}

TEST_F(ProxyServerTest, LoadTracksInflight) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto profile = dynamic_profile();
  proxy.handle(make_request(profile, 1), [](const Response&) {});
  EXPECT_EQ(proxy.load(), 1);
  sim_.run();
  EXPECT_EQ(proxy.load(), 0);
}

TEST_F(ProxyServerTest, UpstreamErrorNotCached) {
  ForwardFn failing = [](const Request&, cluster::Node&, ResponseFn done) {
    done(Response{false, Response::Origin::kError, 0});
  };
  ProxyServer proxy(sim_, node_, std::move(failing), ProxyParams{});
  const auto profile = cacheable_profile();
  const auto response = serve(proxy, make_request(profile, 7));
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(proxy.disk_cache().contains(7));
}

TEST_F(ProxyServerTest, ServedCountsEveryRequest) {
  ProxyServer proxy(sim_, node_, stub_upstream(), ProxyParams{});
  const auto cacheable = cacheable_profile();
  const auto dynamic = dynamic_profile();
  serve(proxy, make_request(cacheable, 1));
  serve(proxy, make_request(dynamic, 2));
  serve(proxy, make_request(cacheable, 1));
  EXPECT_EQ(proxy.stats().served, 3u);
}

}  // namespace
}  // namespace ah::webstack
