// MySQL-like database server (tier 3 / backend).
//
// Query lifecycle: connection slot (max_connections) → executor slot
// (thread_con admission) → table-cache check → class-specific CPU → data
// disk I/O → write-path batching (binlog cache for updates, delayed-insert
// queue for inserts) → result transfer.  Modelled tunables:
//
//   max_connections     connection slots; too few → queueing ahead of the
//                       executor under the ordering mix
//   thread_con          concurrently executing queries; the admission
//                       throttle in front of the CPU
//   table_cache         open table descriptors; when concurrent executors ×
//                       tables outgrow it, reopen churn adds CPU + disk
//   binlog_cache_size   update log batching; larger → fewer seek-bound
//                       flushes (diminishing returns, memory cost)
//   delayed_insert_limit / delayed_queue_size
//                       insert batching depth / queue bound
//   join_buffer_size    flat above a small floor — reproduces the paper's
//                       negative finding — below it joins degrade; each
//                       running join holds this much memory
//   net_buffer_length   result-transfer syscall batching
//   thread_stack        per-connection stack memory; undersized stacks add
//                       guard-check CPU overhead
//
// Parameters load at server start (my.cnf), so reconfigure() restarts the
// process: pools resize, batching state resets, a restart burst is charged.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/node.hpp"
#include "common/analysis.hpp"
#include "common/object_pool.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "webstack/params.hpp"
#include "webstack/request.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

class DbServer {
 public:
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t by_class[kQueryClassCount] = {0, 0, 0, 0};
    std::uint64_t table_cache_misses = 0;
    std::uint64_t binlog_flushes = 0;
    std::uint64_t binlog_spills = 0;
    std::uint64_t delayed_batches = 0;
    std::uint64_t sync_inserts = 0;
  };

  DbServer(sim::Simulator& sim, cluster::Node& node, const DbParams& params,
           std::uint64_t seed = 42);
  ~DbServer();

  /// Applies a new configuration (restart semantics; see file comment).
  void reconfigure(const DbParams& params);

  void set_active(bool active);
  [[nodiscard]] bool active() const { return active_; }

  /// Executes `query`; `done` fires exactly once, with !ok when the query
  /// was rejected.
  void execute(const DbQuery& query, DbResultFn done);

  /// Opt-in span tracing (null disables, the default).  Queue wait is the
  /// gap between arrival and the connection-slot grant.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  [[nodiscard]] cluster::Node& node() { return node_; }
  [[nodiscard]] const DbParams& params() const { return params_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int load() const {
    return connections_->in_use() +
           static_cast<int>(connections_->queue_length());
  }
  [[nodiscard]] sim::SlotPool& connections() { return *connections_; }
  [[nodiscard]] sim::SlotPool& executors() { return *executors_; }

 private:
  /// Per-query state, pooled so the continuations threaded through the
  /// connection/executor pools, CPU and disk capture only one pointer.
  struct DbCall {
    DbServer* self = nullptr;
    DbQuery query;
    DbResultFn done;
    bool is_join = false;
    bool table_miss = false;
    /// Trace instants: arrival and connection grant (service start).
    common::SimTime t_enqueue = common::SimTime::zero();
    common::SimTime t_start = common::SimTime::zero();
  };

  [[nodiscard]] common::Bytes per_connection_memory() const;
  [[nodiscard]] common::Bytes base_memory() const;
  [[nodiscard]] common::SimTime class_cpu(QueryClass cls);
  [[nodiscard]] common::SimTime transfer_cpu(common::Bytes bytes) const;

  void on_connection(DbCall* call);
  void execute_body(DbCall* call);
  void after_cpu(DbCall* call);
  void finish_query(DbCall* call);
  void finish(DbCall* call);
  void charge_write_path(QueryClass cls);

  sim::Simulator& sim_;
  cluster::Node& node_;
  DbParams params_;
  common::Rng rng_;
  common::ObjectPool<DbCall> calls_;

  std::unique_ptr<sim::SlotPool> connections_;
  std::unique_ptr<sim::SlotPool> executors_;
  common::Bytes charged_memory_ = 0;

  common::Bytes binlog_fill_ = 0;
  int delayed_pending_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
  bool active_ = true;
  Stats stats_;
};

}  // namespace ah::webstack
