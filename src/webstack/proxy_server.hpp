// Squid-like caching proxy (tier 1 / presentation).
//
// Serves cacheable pages from an in-memory LRU cache (capacity = cache_mem)
// or an on-disk cache; everything else is forwarded to the application
// tier.  The tunables and their modelled effects:
//
//   cache_mem                      capacity of the memory cache; larger →
//                                  more memory hits but more node memory
//   cache_swap_low/high            LRU watermarks (near-inert, as the paper
//                                  found on the real Squid)
//   maximum/minimum_object_size    disk-cache admission limits
//   maximum_object_size_in_memory  memory-cache admission limit
//   store_objects_per_bucket       hash-chain length: fewer buckets saves
//                                  index memory, longer chains cost lookup
//                                  CPU
//
// Squid reads these at startup, so applying a new configuration restarts
// the process: the memory cache is lost (the disk cache survives, as on a
// real restart) and a restart CPU burst is charged.
#pragma once

#include <cstdint>

#include "cluster/node.hpp"
#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/object_pool.hpp"
#include "ctrl/admission_controller.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "webstack/lru_cache.hpp"
#include "webstack/params.hpp"
#include "webstack/request.hpp"
#include "webstack/retry_policy.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

/// Forwarding hook: sends a request towards the application tier from the
/// given node; `done` receives the upstream response.  Wired to an
/// AppTierRouter by the system model; a small closure keeps the proxy
/// testable without a full cluster.  Invoked once per forwarded request, so
/// it is a plain-data InlineFunction, not a std::function.
using ForwardFn = common::InlineFunction<void(const Request&,
                                              cluster::Node& from,
                                              ResponseFn done)>;

class ProxyServer {
 public:
  struct Stats {
    std::uint64_t served = 0;
    std::uint64_t mem_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t misses_forwarded = 0;     // cacheable but absent
    std::uint64_t passthrough = 0;          // non-cacheable
    std::uint64_t errors = 0;
    std::uint64_t upstream_retries = 0;     // re-forwards after an error
    std::uint64_t stale_served = 0;         // degraded-mode cache hits
    std::uint64_t shed = 0;                 // rejected by admission control
    std::uint64_t shed_stale = 0;           // shed but served a stale copy
  };

  /// What a request rejected by admission control receives.  kFastFail is
  /// an immediate deterministic error (cheapest; the client sees it and
  /// backs off); kServeStale degrades to an expired memory-cache copy when
  /// one exists, falling back to fast-fail on a stale miss.
  enum class ShedMode : std::uint8_t { kFastFail, kServeStale };

  /// Degraded-mode behaviour when the upstream (application tier) errors.
  /// The defaults — no retries, no stale serving — are behaviour-identical
  /// to the fault-unaware proxy, keeping golden outputs stable.
  struct Resilience {
    /// Upstream re-forward schedule; max_retries 0 disables retrying.
    RetryPolicy retry{.max_retries = 0};
    /// When the upstream still fails after retries, serve an expired copy
    /// from the memory cache rather than an error (stale-if-error).
    bool serve_stale = false;
  };

  ProxyServer(sim::Simulator& sim, cluster::Node& node, ForwardFn forward,
              const ProxyParams& params);
  ~ProxyServer();

  /// Applies a new configuration: restart semantics (see file comment).
  void reconfigure(const ProxyParams& params);

  /// Process stop/start for tier reconfiguration: an inactive proxy rejects
  /// requests and releases its memory.
  void set_active(bool active);
  [[nodiscard]] bool active() const { return active_; }

  void set_resilience(const Resilience& resilience) {
    resilience_ = resilience;
  }

  /// Opt-in span tracing (null disables, the default).  Spans decompose
  /// queue wait (handle() to after_lookup()) from service time.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Attaches an admission controller (null detaches): handle() consults
  /// admit() per request and sheds rejects per `mode`; latencies of
  /// admitted completions feed back via observe().  Shed responses never
  /// feed the controller — they are cheap by construction and would bias
  /// the p95 estimate toward reopening under overload.
  void set_admission(ctrl::AdmissionController* admission, ShedMode mode) {
    admission_ = admission;
    shed_mode_ = mode;
  }
  [[nodiscard]] ctrl::AdmissionController* admission() { return admission_; }

  /// Serves `request`; `done` fires exactly once, when the response is
  /// ready (or the request was rejected — indicated by !ok).
  void handle(const Request& request, ResponseFn done);

  [[nodiscard]] cluster::Node& node() { return node_; }
  [[nodiscard]] const ProxyParams& params() const { return params_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const LruCache& memory_cache() const { return mem_cache_; }
  [[nodiscard]] const LruCache& disk_cache() const { return disk_cache_; }
  /// In-flight requests (for least-loaded balancing).
  [[nodiscard]] int load() const { return inflight_; }

 private:
  /// Per-request state, pooled so every continuation threaded through the
  /// CPU/disk resources and the upstream forward captures only `call` —
  /// one pointer, always inside the InlineFunction inline buffer.
  struct ProxyCall {
    ProxyServer* self = nullptr;
    Request request;
    ResponseFn done;
    Response response;
    /// Upstream forwards already failed for this request (reset per use —
    /// pool slots are recycled without re-initialisation).
    int attempt = 0;
    /// Rejected by admission control (stale-shed path): excluded from the
    /// controller's latency window in finish().
    bool shed = false;
    /// Trace instants: arrival at the proxy and CPU-grant (service start).
    common::SimTime t_enqueue = common::SimTime::zero();
    common::SimTime t_start = common::SimTime::zero();
  };

  /// CPU demand of the request-parsing + store-index lookup step.
  [[nodiscard]] common::SimTime lookup_cpu(const Request& request) const;
  /// Memory charged for the cache and store index under `params`.
  [[nodiscard]] common::Bytes resident_memory(const ProxyParams& params) const;

  void after_lookup(ProxyCall* call);
  void serve_from_memory(ProxyCall* call);
  void serve_from_disk(ProxyCall* call, common::Bytes size);
  void forward_upstream(ProxyCall* call);
  void on_upstream(ProxyCall* call, const Response& upstream);
  /// Last-resort path after retries are exhausted: serve an expired cached
  /// copy when allowed, else relay the error.  Returns true when handled.
  bool serve_stale(ProxyCall* call);
  void maybe_cache(const Request& request, const Response& response);
  void finish(ProxyCall* call);
  /// Admission-reject path: fast-fail or degrade to a stale copy.
  void shed(const Request& request, ResponseFn done);

  sim::Simulator& sim_;
  cluster::Node& node_;
  ForwardFn forward_;
  ProxyParams params_;
  common::ObjectPool<ProxyCall> calls_;

  LruCache mem_cache_;
  LruCache disk_cache_;

  Resilience resilience_;
  ctrl::AdmissionController* admission_ = nullptr;
  ShedMode shed_mode_ = ShedMode::kFastFail;
  obs::TraceRecorder* trace_ = nullptr;
  bool active_ = true;
  int inflight_ = 0;
  common::Bytes charged_memory_ = 0;
  Stats stats_;
};

}  // namespace ah::webstack
