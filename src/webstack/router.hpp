// Tier routers: pick a backend and carry a request over one tier hop.
//
// Every TPC-W request makes the same hops, browser -> proxy -> app -> db,
// and all three are one template, HopRouter.  It owns everything a hop
// does: backend selection (load balancing), the pooled per-hop Call, the
// hop timeout, the hop-latency histogram and finish().  Hops differ only
// in their two legs — how the message reaches the backend and how the
// reply comes back — and one of two transports supplies them:
//
//   NetworkHop      proxy -> app (AppTierRouter) and app -> db
//                   (DbTierRouter): both legs cross the cluster network,
//                   each charged to the sender's NIC.
//   FrontendRouter  browser -> proxy: the client machine is not a
//                   simulated node.  The inbound leg, kClientLatency, is
//                   folded into the browser's think timer, so route() runs
//                   when the request reaches the proxy; the reply leg is
//                   the proxy's NIC, then kClientLatency, one event.
//
// Server objects never talk to each other directly, which is what lets the
// reconfiguration logic retarget a node by just removing/adding it here
// while in-flight requests drain naturally.
//
// Fault tolerance: a router consults the health marks maintained by
// cluster::HealthChecker (Node::marked_up) when picking a backend, fails
// fast when every backend is marked down, and — when a hop timeout is
// configured — abandons a hop whose reply never arrives (crashed backend,
// dropped message).  Call lifetime under timeouts uses the same
// generation-stamping trick as the event queue: every pooled Call carries a
// generation bumped on release, continuations capture (call, generation)
// and become no-ops once stale, so a late reply can never touch a recycled
// call.  With timeouts disabled and all nodes marked up (the defaults),
// behaviour is bit-identical to a fault-unaware router.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "cluster/network.hpp"
#include "cluster/node.hpp"
#include "common/analysis.hpp"
#include "common/object_pool.hpp"
#include "common/units.hpp"
#include "obs/histogram.hpp"
#include "sim/simulator.hpp"
#include "webstack/app_server.hpp"
#include "webstack/db_server.hpp"
#include "webstack/proxy_server.hpp"
#include "webstack/request.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

/// One-way latency between an emulated browser and the proxy tier.
inline constexpr common::SimTime kClientLatency = common::SimTime::micros(300);

/// Degradation counters shared by all routers.
struct RouterStats {
  /// Hops abandoned because the reply missed the configured timeout.
  std::uint64_t timeouts = 0;
  /// Requests failed immediately because every backend was marked down.
  std::uint64_t fast_fails = 0;
};

/// What a hop carries, by message type: the reply and its continuation,
/// the backend entry point, the reply a failed hop answers with, and the
/// wire sizes of the two network legs.
template <typename Message>
struct HopTraits;

template <>
struct HopTraits<Request> {
  using Reply = Response;
  using Done = ResponseFn;
  static constexpr common::Bytes kRequestBytes = 512;  // forwarded HTTP
  template <typename Server, typename Fn>
  static void serve(Server& server, const Request& request, Fn&& done) {
    server.handle(request, std::forward<Fn>(done));
  }
  static Response failed() {
    return Response{false, Response::Origin::kError, 0};
  }
  static common::Bytes reply_bytes(const Request&, const Response& response) {
    return std::max<common::Bytes>(128, response.bytes);
  }
};

template <>
struct HopTraits<DbQuery> {
  using Reply = DbResult;
  using Done = DbResultFn;
  static constexpr common::Bytes kRequestBytes = 384;  // one query
  template <typename Fn>
  static void serve(DbServer& db, const DbQuery& query, Fn&& done) {
    db.execute(query, std::forward<Fn>(done));
  }
  static DbResult failed() { return DbResult{false}; }
  static common::Bytes reply_bytes(const DbQuery& query, const DbResult&) {
    return query.result_bytes;
  }
};

/// One tier hop to `Backend` servers.  `Transport` derives from it (CRTP)
/// and supplies the two legs: forward_leg(call) carries call->message to
/// call->backend and then runs arrive(call); reply_leg(call) carries
/// call->reply back and then runs deliver(call).  Every continuation
/// captures only (call, generation) and is a no-op once the call finished.
template <typename Transport, typename Backend, typename Message>
class HopRouter {
  using Traits = HopTraits<Message>;

 public:
  using Reply = typename Traits::Reply;
  using Done = typename Traits::Done;

  HopRouter(const HopRouter&) = delete;
  HopRouter& operator=(const HopRouter&) = delete;

  void add_backend(Backend* server) {
    backends_.push_back(server);
    balancer_.reset();
  }
  bool remove_backend(Backend* server) {
    const auto it = std::find(backends_.begin(), backends_.end(), server);
    if (it == backends_.end()) return false;
    backends_.erase(it);
    balancer_.reset();
    return true;
  }
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] const std::vector<Backend*>& backends() const {
    return backends_;
  }

  /// Abandon a routed request whose reply has not arrived within `timeout`
  /// (zero = wait forever, the default).  The caller sees an error reply;
  /// a late reply is discarded.
  void set_hop_timeout(common::SimTime timeout) { hop_timeout_ = timeout; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// Hop-latency histogram: the hop's start to finish(), i.e. both legs
  /// plus backend service (for the frontend, the full client round trip).
  /// Observation is passive: recording is a pure counter increment, so
  /// attaching a histogram perturbs nothing.
  void set_hop_histogram(obs::Histogram* histogram) {
    hop_histogram_ = histogram;
  }

 protected:
  /// Per-hop state, pooled so the continuations capture only the call and
  /// its generation (see ProxyServer::ProxyCall).  `generation` outlives
  /// each use: bumped on release, checked by continuations (stale = no-op).
  struct Call {
    Transport* self = nullptr;
    Backend* backend = nullptr;
    cluster::Node* from = nullptr;  // sending node; null for a browser
    Message message;
    Done done;
    Reply reply;
    common::SimTime routed_at = common::SimTime::zero();
    std::uint32_t generation = 0;
    sim::EventId timeout_id = 0;
  };

  HopRouter(sim::Simulator& sim, cluster::BalancePolicy policy)
      : sim_(sim), balancer_(policy) {
    AH_ASSERT_POOLED_CALL(Call);
  }

  /// Sends `message` from `from` to a selected backend: arms the timeout
  /// (`hop_timeout` after `routed_at`, when the hop's clock started), then
  /// runs the forward leg, which may reach the backend before this
  /// returns.  `done` fires with the backend's reply after the reply leg.
  /// With no backends (or all of them marked down) the request fails
  /// before this returns.
  void route_from(const Message& message, cluster::Node* from,
                  common::SimTime routed_at, Done done) {
    if (backends_.empty()) {
      done(Traits::failed());
      return;
    }
    if (std::none_of(backends_.begin(), backends_.end(),
                     [](Backend* b) { return b->node().marked_up(); })) {
      // Whole tier marked down: fail fast instead of queueing on a corpse.
      ++stats_.fast_fails;
      done(Traits::failed());
      return;
    }
    const std::size_t pick = balancer_.pick(
        backends_.size(),
        [this](std::size_t i) {
          return static_cast<double>(backends_[i]->load());
        },
        [this](std::size_t i) { return backends_[i]->node().marked_up(); });
    Call* call = calls_.acquire();
    call->self = static_cast<Transport*>(this);
    call->backend = backends_[pick];
    call->from = from;
    call->message = message;
    call->done = std::move(done);
    call->routed_at = routed_at;
    call->timeout_id = 0;
    // Armed before the forward leg: a backend that answers at once may
    // finish the call, and with it its generation, inside forward_leg().
    if (hop_timeout_ > common::SimTime::zero()) {
      call->timeout_id = sim_.schedule_at(
          routed_at + hop_timeout_, [call, gen = call->generation] {
            if (call->generation == gen) call->self->on_timeout(call);
          });
    }
    call->self->forward_leg(call);
  }

  void arrive(Call* call) {
    Traits::serve(*call->backend, call->message,
                  [call, gen = call->generation](const Reply& reply) {
                    if (call->generation != gen) return;
                    call->reply = reply;
                    call->self->reply_leg(call);
                  });
  }

  void deliver(Call* call) { finish(call, call->reply); }

  sim::Simulator& sim_;

 private:
  void on_timeout(Call* call) {
    ++stats_.timeouts;
    finish(call, Traits::failed());
  }

  void finish(Call* call, const Reply& reply) {
    if (call->timeout_id != 0) {
      sim_.cancel(call->timeout_id);
      call->timeout_id = 0;
    }
    AH_OBS_RECORD_SPAN(hop_histogram_, sim_.now() - call->routed_at);
    // Invalidate every outstanding continuation (late replies, the timeout),
    // then release the slot before invoking `done` — it may reenter.
    ++call->generation;
    Done done = std::move(call->done);
    calls_.release(call);
    done(reply);
  }

  cluster::LoadBalancer balancer_;
  std::vector<Backend*> backends_;
  common::ObjectPool<Call> calls_;
  common::SimTime hop_timeout_ = common::SimTime::zero();
  obs::Histogram* hop_histogram_ = nullptr;
  RouterStats stats_;
};

/// Network transport: both legs cross the cluster network, each charged to
/// the sender's NIC.
template <typename Backend, typename Message>
class NetworkHop final
    : public HopRouter<NetworkHop<Backend, Message>, Backend, Message> {
  using Base = HopRouter<NetworkHop, Backend, Message>;

 public:
  NetworkHop(cluster::Network& network, cluster::BalancePolicy policy)
      : Base(network.simulator(), policy), network_(network) {}

  /// Sends `message` from node `from` to a selected backend; `done` fires
  /// with the backend's reply after the return hop.
  void route(const Message& message, cluster::Node& from,
             typename Base::Done done) {
    this->route_from(message, &from, this->sim_.now(), std::move(done));
  }

 private:
  friend Base;
  using Call = typename Base::Call;

  void forward_leg(Call* call) {
    network_.send(*call->from, call->backend->node(),
                  HopTraits<Message>::kRequestBytes,
                  [call, gen = call->generation] {
                    if (call->generation == gen) call->self->arrive(call);
                  });
  }
  void reply_leg(Call* call) {
    network_.send(call->backend->node(), *call->from,
                  HopTraits<Message>::reply_bytes(call->message, call->reply),
                  [call, gen = call->generation] {
                    if (call->generation == gen) call->self->deliver(call);
                  });
  }

  cluster::Network& network_;
};

/// Routes requests from the proxy tier to the application tier.
using AppTierRouter = NetworkHop<AppServer, Request>;
/// Routes database queries from the application tier to the database tier.
using DbTierRouter = NetworkHop<DbServer, DbQuery>;

/// Client transport, the entry point: routes emulated-browser requests to
/// the proxy tier.
class FrontendRouter final
    : public HopRouter<FrontendRouter, ProxyServer, Request> {
 public:
  FrontendRouter(sim::Simulator& sim, cluster::BalancePolicy policy)
      : HopRouter(sim, policy) {}

  /// Routes a browser request that reaches the proxy tier now.  The
  /// browser issued it kClientLatency ago, so the hop's clock (latency
  /// histogram and timeout) starts then.
  void route(const Request& request, ResponseFn done) {
    route_from(request, nullptr, sim_.now() - kClientLatency,
               std::move(done));
  }

 private:
  friend HopRouter;

  void forward_leg(Call* call) { arrive(call); }
  /// Response serialization on the proxy's NIC, then client latency.
  void reply_leg(Call* call) {
    cluster::Node& node = call->backend->node();
    const common::Bytes bytes =
        HopTraits<Request>::reply_bytes(call->message, call->reply);
    node.nic().send(node.nic_time(bytes), kClientLatency,
                    [call, gen = call->generation] {
                      if (call->generation == gen) call->self->deliver(call);
                    });
  }
};

}  // namespace ah::webstack
