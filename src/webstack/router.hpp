// Tier routers: pick a backend and model the network round trip.
//
// A router owns the *wiring* between tiers: backend selection (load
// balancing), the forward hop charged to the sender's NIC, and the response
// hop charged to the replier's NIC.  Server objects never talk to each
// other directly, which is what lets the reconfiguration logic retarget a
// node by just removing/adding it here while in-flight requests drain
// naturally.
//
// Fault tolerance: each router consults the health marks maintained by
// cluster::HealthChecker (Node::marked_up) when picking a backend, fails
// fast when every backend is marked down, and — when a hop timeout is
// configured — abandons a hop whose reply never arrives (crashed backend,
// dropped message).  Call lifetime under timeouts uses the same
// generation-stamping trick as the event queue: every pooled Call carries a
// generation bumped on release, continuations capture (call, generation)
// and become no-ops once stale, so a late reply can never touch a recycled
// call.  With timeouts disabled and all nodes marked up (the defaults),
// behaviour is bit-identical to the fault-unaware router.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "common/analysis.hpp"
#include "common/object_pool.hpp"
#include "cluster/network.hpp"
#include "cluster/node.hpp"
#include "obs/histogram.hpp"
#include "webstack/app_server.hpp"
#include "webstack/db_server.hpp"
#include "webstack/proxy_server.hpp"
#include "webstack/request.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

/// Size of a forwarded HTTP request message.
inline constexpr common::Bytes kForwardRequestBytes = 512;
/// Size of a database query message.
inline constexpr common::Bytes kQueryRequestBytes = 384;

/// Degradation counters shared by all routers.
struct RouterStats {
  /// Hops abandoned because the reply missed the configured timeout.
  std::uint64_t timeouts = 0;
  /// Requests failed immediately because every backend was marked down.
  std::uint64_t fast_fails = 0;
};

/// Routes requests from the proxy tier to the application tier.
class AppTierRouter {
 public:
  AppTierRouter(cluster::Network& network, cluster::BalancePolicy policy);

  void add_backend(AppServer* server);
  bool remove_backend(AppServer* server);
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] const std::vector<AppServer*>& backends() const {
    return backends_;
  }

  /// Abandon a routed request whose response has not arrived within
  /// `timeout` (zero = wait forever, the default).  The caller sees an
  /// error response; a late reply is discarded.
  void set_hop_timeout(common::SimTime timeout) { hop_timeout_ = timeout; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// Hop-latency histogram (route() to finish(), i.e. both network legs
  /// plus backend service).  Observation is passive: recording is a pure
  /// counter increment, so attaching a histogram perturbs nothing.
  void set_hop_histogram(obs::Histogram* histogram) {
    hop_histogram_ = histogram;
  }

  /// Sends `request` from node `from` to a selected backend; `done` fires
  /// with the backend's response after the return hop.  With no backends
  /// (or all of them marked down) the request fails immediately.
  void route(const Request& request, cluster::Node& from, ResponseFn done);

 private:
  /// Per-hop state, pooled so the network/backend continuations capture
  /// only one pointer (see ProxyServer::ProxyCall).  `generation` outlives
  /// each use: bumped on release, checked by continuations (stale = no-op).
  struct Call {
    AppTierRouter* self = nullptr;
    AppServer* backend = nullptr;
    cluster::Node* from = nullptr;
    Request request;
    ResponseFn done;
    Response response;
    common::SimTime routed_at = common::SimTime::zero();
    std::uint32_t generation = 0;
    sim::EventId timeout_id = 0;
  };

  void on_forwarded(Call* call);
  void on_response(Call* call, const Response& response);
  void on_timeout(Call* call);
  void deliver(Call* call);
  void finish(Call* call, const Response& response);

  cluster::Network& network_;
  cluster::LoadBalancer balancer_;
  std::vector<AppServer*> backends_;
  common::ObjectPool<Call> calls_;
  common::SimTime hop_timeout_ = common::SimTime::zero();
  obs::Histogram* hop_histogram_ = nullptr;
  RouterStats stats_;
};

/// Routes database queries from the application tier to the database tier.
class DbTierRouter {
 public:
  DbTierRouter(cluster::Network& network, cluster::BalancePolicy policy);

  void add_backend(DbServer* server);
  bool remove_backend(DbServer* server);
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] const std::vector<DbServer*>& backends() const {
    return backends_;
  }

  void set_hop_timeout(common::SimTime timeout) { hop_timeout_ = timeout; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// Hop-latency histogram (see AppTierRouter::set_hop_histogram).
  void set_hop_histogram(obs::Histogram* histogram) {
    hop_histogram_ = histogram;
  }

  void route(const DbQuery& query, cluster::Node& from, DbResultFn done);

 private:
  struct Call {
    DbTierRouter* self = nullptr;
    DbServer* backend = nullptr;
    cluster::Node* from = nullptr;
    DbQuery query;
    DbResultFn done;
    DbResult result;
    common::SimTime routed_at = common::SimTime::zero();
    std::uint32_t generation = 0;
    sim::EventId timeout_id = 0;
  };

  void on_forwarded(Call* call);
  void on_result(Call* call, const DbResult& result);
  void on_timeout(Call* call);
  void deliver(Call* call);
  void finish(Call* call, const DbResult& result);

  cluster::Network& network_;
  cluster::LoadBalancer balancer_;
  std::vector<DbServer*> backends_;
  common::ObjectPool<Call> calls_;
  common::SimTime hop_timeout_ = common::SimTime::zero();
  obs::Histogram* hop_histogram_ = nullptr;
  RouterStats stats_;
};

/// Entry point: routes emulated-browser requests to the proxy tier.
/// The client machine is not a simulated node, so the inbound hop is a
/// fixed latency; the response hop charges the proxy's NIC.
class FrontendRouter {
 public:
  FrontendRouter(sim::Simulator& sim, cluster::BalancePolicy policy,
                 common::SimTime client_latency = common::SimTime::micros(300));

  void add_backend(ProxyServer* server);
  bool remove_backend(ProxyServer* server);
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] const std::vector<ProxyServer*>& backends() const {
    return backends_;
  }

  void set_hop_timeout(common::SimTime timeout) { hop_timeout_ = timeout; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// End-to-end latency histogram: route() to finish(), i.e. the full
  /// client-observed round trip (see AppTierRouter::set_hop_histogram).
  void set_hop_histogram(obs::Histogram* histogram) {
    hop_histogram_ = histogram;
  }

  void route(const Request& request, ResponseFn done);

 private:
  struct Call {
    FrontendRouter* self = nullptr;
    ProxyServer* backend = nullptr;
    Request request;
    ResponseFn done;
    Response response;
    common::SimTime routed_at = common::SimTime::zero();
    std::uint32_t generation = 0;
    sim::EventId timeout_id = 0;
  };

  void on_client_arrived(Call* call);
  void on_response(Call* call, const Response& response);
  void on_nic_done(Call* call);
  void on_timeout(Call* call);
  void deliver(Call* call);
  void finish(Call* call, const Response& response);

  sim::Simulator& sim_;
  cluster::LoadBalancer balancer_;
  common::SimTime client_latency_;
  std::vector<ProxyServer*> backends_;
  common::ObjectPool<Call> calls_;
  common::SimTime hop_timeout_ = common::SimTime::zero();
  obs::Histogram* hop_histogram_ = nullptr;
  RouterStats stats_;
};

}  // namespace ah::webstack
