// Tomcat-like application server (tier 2 / middleware).
//
// Two thread pools, mirroring Tomcat 4's connectors:
//   * HTTP connector (minProcessors/maxProcessors/acceptCount/bufferSize):
//     a thread is held for the full lifetime of a request — including all
//     downstream database waits — so under a DB-heavy mix the pool, not the
//     CPU, is the first bottleneck.  The accept queue bounds waiting
//     connections; overflow is a hard rejection (connection refused).
//   * AJP worker pool (AJPminProcessors/AJPmaxProcessors/AJPacceptCount):
//     servlet execution requires a worker; static passthrough does not.
//
// Thread economics: threads beyond min_processors are spawned on demand at
// a CPU cost; every spawned thread holds stack + connector buffer memory
// until the next restart.  This is what penalises "just set everything to
// the maximum": ~1 GiB nodes start paging.
//
// Parameters are read at startup (server.xml), so reconfigure() restarts
// the server: pools reset to min processors, waiters are dropped, and a
// restart CPU burst is charged.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/node.hpp"
#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/object_pool.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "webstack/params.hpp"
#include "webstack/request.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

/// Hook for issuing a database query from this node; `done` receives the
/// result.  Wired to a DbTierRouter by the system model.  Invoked once per
/// query, so it is a plain-data InlineFunction, not a std::function.
using DbQueryFn = common::InlineFunction<void(const DbQuery&,
                                              cluster::Node& from,
                                              DbResultFn done)>;

class AppServer {
 public:
  struct Stats {
    std::uint64_t served = 0;
    std::uint64_t rejected_http = 0;
    std::uint64_t rejected_ajp = 0;
    std::uint64_t db_queries = 0;
    std::uint64_t threads_spawned = 0;
    /// Requests that reached an inactive (stopped or crashed) server.
    /// fault_recovery_test asserts this stays flat after mark-down — the
    /// health-checked routers must send a dead node nothing.
    std::uint64_t refused = 0;
  };

  AppServer(sim::Simulator& sim, cluster::Node& node, DbQueryFn db_query,
            const AppParams& params);
  ~AppServer();

  /// Applies a new configuration (restart semantics; see file comment).
  void reconfigure(const AppParams& params);

  /// Process stop/start for tier reconfiguration.
  void set_active(bool active);
  [[nodiscard]] bool active() const { return active_; }

  /// Serves `request`; `done` fires exactly once, when the response is
  /// ready (or the request was rejected — indicated by !ok).
  void handle(const Request& request, ResponseFn done);

  /// Opt-in span tracing (null disables, the default).  Queue wait is the
  /// gap between arrival and the HTTP connector thread grant.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  [[nodiscard]] cluster::Node& node() { return node_; }
  [[nodiscard]] const AppParams& params() const { return params_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int load() const {
    return http_pool_->in_use() + static_cast<int>(http_pool_->queue_length());
  }
  [[nodiscard]] sim::SlotPool& http_pool() { return *http_pool_; }
  [[nodiscard]] sim::SlotPool& ajp_pool() { return *ajp_pool_; }

 private:
  /// Per-request state, pooled so every continuation (pool grants, CPU
  /// completions, DB results) captures only one pointer and stays inside
  /// the InlineFunction inline buffer.
  struct AppCall {
    AppServer* self = nullptr;
    Request request;
    ResponseFn done;
    int remaining = 0;
    Response::Origin origin = Response::Origin::kApp;
    /// Trace instants: arrival and HTTP-thread grant (service start).
    common::SimTime t_enqueue = common::SimTime::zero();
    common::SimTime t_start = common::SimTime::zero();
  };

  /// Connector I/O CPU for moving `bytes` through a `buffer_size` buffer.
  [[nodiscard]] common::SimTime io_cpu(common::Bytes bytes) const;
  /// Charges spawn cost and memory when the pool grows past what has been
  /// spawned so far.  Returns the CPU penalty to add to this request.
  common::SimTime charge_thread_growth(sim::SlotPool& pool, int& spawned,
                                       common::Bytes per_thread_mem);
  [[nodiscard]] common::Bytes http_thread_memory() const;
  [[nodiscard]] common::Bytes ajp_thread_memory() const;

  void on_http_granted(AppCall* call);
  void run_servlet(AppCall* call);
  void on_ajp_granted(AppCall* call);
  void issue_queries(AppCall* call);
  void on_db_result(AppCall* call, const DbResult& result);
  void respond(AppCall* call);
  void finish(AppCall* call);
  void fail(AppCall* call);
  void release_memory_and_reset();

  sim::Simulator& sim_;
  cluster::Node& node_;
  DbQueryFn db_query_;
  AppParams params_;
  common::ObjectPool<AppCall> calls_;

  std::unique_ptr<sim::SlotPool> http_pool_;
  std::unique_ptr<sim::SlotPool> ajp_pool_;
  int http_spawned_ = 0;
  int ajp_spawned_ = 0;
  common::Bytes charged_memory_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
  bool active_ = true;
  Stats stats_;
};

}  // namespace ah::webstack
