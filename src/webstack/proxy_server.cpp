#include "webstack/proxy_server.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <cassert>

AH_HOT_PATH_FILE;

namespace ah::webstack {

namespace {
/// Fixed size of the proxy's on-disk cache (the testbed dedicated a disk
/// partition to Squid; its size was not a tunable in the paper).
constexpr common::Bytes kDiskCacheBytes = 2LL * 1024 * 1024 * 1024;
/// CPU charged once per restart (config parse, index rebuild).
constexpr auto kRestartCpu = common::SimTime::millis(150);
/// Freshness lifetime of cached TPC-W pages (prices and stock change, so
/// the site serves them with a finite max-age).  Short enough that a
/// configuration which stops admitting objects pays for it within one
/// measured iteration — evaluations stay attributable to the
/// configuration under test.
constexpr auto kObjectTtl = common::SimTime::seconds(180.0);
}  // namespace

ProxyServer::ProxyServer(sim::Simulator& sim, cluster::Node& node,
                         ForwardFn forward, const ProxyParams& params)
    : sim_(sim),
      node_(node),
      forward_(std::move(forward)),
      params_(params),
      mem_cache_(params.cache_mem, params.cache_swap_low,
                 params.cache_swap_high),
      disk_cache_(kDiskCacheBytes, params.cache_swap_low,
                  params.cache_swap_high) {
  AH_ASSERT_POOLED_CALL(ProxyCall);
  charged_memory_ = resident_memory(params_);
  node_.alloc_memory(charged_memory_);
}

ProxyServer::~ProxyServer() {
  if (charged_memory_ > 0) node_.free_memory(charged_memory_);
}

common::Bytes ProxyServer::resident_memory(const ProxyParams& params) const {
  // Squid reserves cache_mem up front, plus the store index: one hash table
  // over the expected object population.  Fewer objects per bucket means
  // more buckets.
  constexpr std::int64_t kExpectedObjects = 64 * 1024;
  constexpr common::Bytes kBucketOverhead = 96;
  const std::int64_t buckets =
      kExpectedObjects / std::max(1, params.store_objects_per_bucket);
  constexpr common::Bytes kBaseProcess = 24LL * 1024 * 1024;
  return kBaseProcess + params.cache_mem + buckets * kBucketOverhead;
}

void ProxyServer::reconfigure(const ProxyParams& params) {
  // Restart: drop the memory cache (volatile), keep the disk cache, charge
  // the restart burst, swap the memory accounting to the new footprint.  A
  // stopped proxy only takes the parameters; set_active(true) charges them.
  params_ = params;
  mem_cache_.clear();
  mem_cache_.set_capacity(params_.cache_mem);
  mem_cache_.set_watermarks(params_.cache_swap_low, params_.cache_swap_high);
  disk_cache_.set_watermarks(params_.cache_swap_low, params_.cache_swap_high);
  if (!active_) return;

  node_.free_memory(charged_memory_);
  charged_memory_ = resident_memory(params_);
  node_.alloc_memory(charged_memory_);
  node_.cpu().submit(kRestartCpu, {});
}

void ProxyServer::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!active_) {
    mem_cache_.clear();
    node_.free_memory(charged_memory_);
    charged_memory_ = 0;
  } else {
    charged_memory_ = resident_memory(params_);
    node_.alloc_memory(charged_memory_);
    node_.cpu().submit(kRestartCpu, {});
  }
}

common::SimTime ProxyServer::lookup_cpu(const Request& request) const {
  // Parsing/forwarding base plus hash-chain scan: expected half-chain walk.
  const auto chain = static_cast<double>(params_.store_objects_per_bucket);
  const auto scan = common::SimTime::micros(
      static_cast<std::int64_t>(0.4 * chain / 2.0));
  return request.profile->proxy_cpu + scan;
}

void ProxyServer::handle(const Request& request, ResponseFn done) {
  assert(request.profile != nullptr);
  if (!active_) {
    ++stats_.errors;
    done(Response{false, Response::Origin::kError, 0});
    return;
  }
  if (admission_ != nullptr && !admission_->admit(request.id)) {
    shed(request, std::move(done));
    return;
  }
  ++inflight_;
  ProxyCall* call = calls_.acquire();
  call->self = this;
  call->request = request;
  call->done = std::move(done);
  call->attempt = 0;
  call->shed = false;
  call->t_enqueue = sim_.now();
  call->t_start = call->t_enqueue;

  auto after = [call] { call->self->after_lookup(call); };
  static_assert(sim::Resource::Completion::stores_inline<decltype(after)>(),
                "proxy lookup closure must not allocate");
  node_.cpu().submit(lookup_cpu(request), std::move(after));
}

void ProxyServer::after_lookup(ProxyCall* call) {
  // CPU granted and lookup done: service has started.  The gap back to
  // t_enqueue is the request's wait in the CPU run queue.
  call->t_start = sim_.now();
  const Request& request = call->request;
  if (!request.profile->cacheable) {
    ++stats_.passthrough;
    forward_upstream(call);
    return;
  }
  // Stale-if-error needs the expired copy to still be there when the
  // upstream re-fetch fails, but lookup() evicts on expiry.  With
  // serve-stale on, peek first and only run the evicting lookup() on a
  // fresh entry; an expired one stays resident for serve_stale().
  const bool fresh_only = resilience_.serve_stale;
  if ((!fresh_only || mem_cache_.contains(request.object_id, sim_.now()))) {
    if (const auto size = mem_cache_.lookup(request.object_id, sim_.now());
        size >= 0) {
      ++stats_.mem_hits;
      serve_from_memory(call);
      return;
    }
  }
  if (const auto size = disk_cache_.lookup(request.object_id, sim_.now());
      size >= 0) {
    ++stats_.disk_hits;
    // Hot-object promotion: objects served from disk move into the
    // memory cache (when admitted), so the memory cache converges on
    // the hot set within a warm-up period even after a restart.
    if (size <= params_.maximum_object_size_in_memory) {
      mem_cache_.insert(request.object_id, size, sim_.now() + kObjectTtl);
    }
    serve_from_disk(call, size);
    return;
  }
  ++stats_.misses_forwarded;
  forward_upstream(call);
}

void ProxyServer::serve_from_memory(ProxyCall* call) {
  // Copy-out and socket-push cost; the response leaves via the router's
  // NIC hop.  A memory hit is the cheapest path through the proxy.
  const auto copy_cpu =
      common::SimTime::micros(500 + call->request.response_bytes / 64);
  call->response = Response{true, Response::Origin::kProxyMemory,
                            call->request.response_bytes};
  node_.cpu().submit(copy_cpu, [call] { call->self->finish(call); });
}

void ProxyServer::serve_from_disk(ProxyCall* call, common::Bytes size) {
  call->response = Response{true, Response::Origin::kProxyDisk, size};
  node_.disk().submit(node_.disk_time(size), [call] {
    // Swap-in bookkeeping plus pushing the object through the socket.
    ProxyServer* self = call->self;
    self->node_.cpu().submit(
        common::SimTime::micros(1500 + call->response.bytes / 48),
        [call] { call->self->finish(call); });
  });
}

void ProxyServer::forward_upstream(ProxyCall* call) {
  auto on_upstream = [call](const Response& upstream) {
    call->self->on_upstream(call, upstream);
  };
  static_assert(ResponseFn::stores_inline<decltype(on_upstream)>(),
                "upstream continuation must not allocate");
  forward_(call->request, node_, std::move(on_upstream));
}

void ProxyServer::on_upstream(ProxyCall* call, const Response& upstream) {
  if (!upstream.ok) {
    if (resilience_.retry.allows(call->attempt)) {
      // Bounded exponential backoff with per-request deterministic jitter:
      // a marked-down tier does not get hammered, and recovering capacity
      // is not hit by a synchronized thundering herd of re-forwards.
      const common::SimTime delay =
          resilience_.retry.backoff(call->attempt, call->request.id);
      ++call->attempt;
      ++stats_.upstream_retries;
      sim_.schedule(delay, [call] { call->self->forward_upstream(call); });
      return;
    }
    if (serve_stale(call)) return;
  }
  if (upstream.ok) maybe_cache(call->request, upstream);
  // Relay cost: the proxy shuttles the upstream response through
  // its own socket pair (read from app tier, write to client).
  // Error responses (connection refused upstream) carry no body
  // and cost almost nothing to relay.
  const auto relay_cpu =
      upstream.ok ? common::SimTime::micros(3500 + upstream.bytes / 24)
                  : common::SimTime::micros(200);
  call->response = upstream;
  node_.cpu().submit(relay_cpu, [call] { call->self->finish(call); });
}

bool ProxyServer::serve_stale(ProxyCall* call) {
  if (!resilience_.serve_stale) return false;
  if (!call->request.profile->cacheable) return false;
  const common::Bytes size = mem_cache_.lookup_stale(call->request.object_id);
  if (size < 0) return false;
  ++stats_.stale_served;
  call->response = Response{true, Response::Origin::kProxyMemory, size};
  const auto copy_cpu = common::SimTime::micros(500 + size / 64);
  node_.cpu().submit(copy_cpu, [call] { call->self->finish(call); });
  return true;
}

void ProxyServer::shed(const Request& request, ResponseFn done) {
  ++stats_.shed;
  if (shed_mode_ == ShedMode::kServeStale && request.profile->cacheable) {
    // Any cached copy, fresh or expired, beats an error page during an
    // overload — staleness is the price of staying up.
    const common::Bytes size = mem_cache_.lookup_stale(request.object_id);
    if (size >= 0) {
      ++stats_.shed_stale;
      ++inflight_;
      ProxyCall* call = calls_.acquire();
      call->self = this;
      call->request = request;
      call->done = std::move(done);
      call->attempt = 0;
      call->shed = true;
      call->t_enqueue = sim_.now();
      call->t_start = call->t_enqueue;
      call->response = Response{true, Response::Origin::kProxyMemory, size};
      const auto copy_cpu = common::SimTime::micros(500 + size / 64);
      node_.cpu().submit(copy_cpu, [call] { call->self->finish(call); });
      return;
    }
  }
  // Fast-fail: a deterministic, nearly free rejection.  No CPU is charged
  // — the point of shedding is that the proxy does NOT spend service
  // capacity on the rejected request.
  done(Response{false, Response::Origin::kError, 0});
}

void ProxyServer::maybe_cache(const Request& request,
                              const Response& response) {
  if (!request.profile->cacheable) return;
  const common::Bytes size = response.bytes;
  if (size < params_.minimum_object_size) return;
  if (size <= params_.maximum_object_size_in_memory) {
    mem_cache_.insert(request.object_id, size, sim_.now() + kObjectTtl);
  }
  if (size <= params_.maximum_object_size) {
    // Disk store write happens off the request path (async swap-out);
    // charge the disk but do not delay the response.
    disk_cache_.insert(request.object_id, size, sim_.now() + kObjectTtl);
    node_.disk().submit(node_.disk_time(size), {});
  }
}

void ProxyServer::finish(ProxyCall* call) {
  --inflight_;
  ++stats_.served;
  AH_OBS_TRACE_SPAN(trace_, call->request.id, obs::Hop::kProxy,
                    node_.name().c_str(), call->t_enqueue, call->t_start,
                    sim_.now());
  // Close the control loop on admitted completions only: stale-shed
  // responses skip the full service path and would read as spuriously
  // fast.
  if (!call->shed && admission_ != nullptr) {
    admission_->observe(sim_.now() - call->t_enqueue);
  }
  // Release the slot before invoking the continuation: `done` may reenter
  // this proxy with a fresh request (retry loops), and the slot must be
  // reusable by then.
  ResponseFn done = std::move(call->done);
  const Response response = call->response;
  calls_.release(call);
  done(response);
}

}  // namespace ah::webstack
