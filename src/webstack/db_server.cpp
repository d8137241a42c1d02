#include "webstack/db_server.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <cassert>

AH_HOT_PATH_FILE;

namespace ah::webstack {

namespace {
constexpr common::Bytes kBaseProcess = 140LL * 1024 * 1024;  // mysqld + key buffer
constexpr auto kRestartCpu = common::SimTime::millis(600);
constexpr auto kSyscallCpu = common::SimTime::micros(12);
/// Open-table descriptors each active connection pins on average: MyISAM
/// needs a descriptor per (connection, table) pair and TPC-W servlets keep
/// most of the schema's 8 tables warm per connection.
constexpr double kDescriptorsPerConnection = 8.0;
/// Median binlog volume of one write transaction (row events); the
/// distribution is heavy-tailed, so small binlog caches spill often.
constexpr common::Bytes kBinlogMedianTxnBytes = 26 * 1024;
/// Row size for delayed-insert batching.
constexpr common::Bytes kInsertRowBytes = 400;
/// join_buffer_size floor below which joins degrade (the paper found the
/// response flat from 8 MB all the way down to ~400 KB).
constexpr common::Bytes kJoinBufferFloor = 192LL * 1024;
/// thread_stack floor below which per-query guard overhead kicks in.
constexpr common::Bytes kThreadStackFloor = 48LL * 1024;
}  // namespace

DbServer::DbServer(sim::Simulator& sim, cluster::Node& node,
                   const DbParams& params, std::uint64_t seed)
    : sim_(sim), node_(node), params_(params), rng_(seed) {
  AH_ASSERT_POOLED_CALL(DbCall);
  AH_LINT_ALLOW(hot_path_alloc, "pool construction: server start only");
  connections_ = std::make_unique<sim::SlotPool>(
      sim_, node_.name() + ".conn",
      sim::SlotPool::Config{params_.max_connections});
  AH_LINT_ALLOW(hot_path_alloc, "pool construction: server start only");
  executors_ = std::make_unique<sim::SlotPool>(
      sim_, node_.name() + ".exec",
      sim::SlotPool::Config{params_.thread_concurrency});
  charged_memory_ = base_memory();
  node_.alloc_memory(charged_memory_);
}

DbServer::~DbServer() {
  if (charged_memory_ > 0) node_.free_memory(charged_memory_);
}

common::Bytes DbServer::per_connection_memory() const {
  return params_.thread_stack + params_.net_buffer_length;
}

common::Bytes DbServer::base_memory() const {
  // MySQL pre-allocates thread structures for a fraction of max_connections;
  // the rest is charged as connections activate.
  return kBaseProcess +
         params_.max_connections * (per_connection_memory() / 4);
}

void DbServer::reconfigure(const DbParams& params) {
  // A stopped server only takes the parameters; set_active(true) charges
  // its footprint and restart burst.
  node_.free_memory(charged_memory_);
  params_ = params;
  connections_->set_slots(params_.max_connections);
  executors_->set_slots(params_.thread_concurrency);
  binlog_fill_ = 0;
  delayed_pending_ = 0;
  if (!active_) return;
  charged_memory_ = base_memory();
  node_.alloc_memory(charged_memory_);
  node_.cpu().submit(kRestartCpu, {});
}

void DbServer::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!active_) {
    node_.free_memory(charged_memory_);
    charged_memory_ = 0;
  } else {
    charged_memory_ = base_memory();
    node_.alloc_memory(charged_memory_);
    binlog_fill_ = 0;
    delayed_pending_ = 0;
    node_.cpu().submit(kRestartCpu, {});
  }
}

common::SimTime DbServer::class_cpu(QueryClass cls) {
  double ms = 0.0;
  switch (cls) {
    case QueryClass::kSelectSimple: ms = 3.0; break;
    case QueryClass::kSelectJoin:   ms = 10.0; break;
    case QueryClass::kUpdate:       ms = 5.0; break;
    case QueryClass::kInsert:       ms = 3.0; break;
  }
  // Join degradation below the buffer floor: block nested loop passes grow
  // as the buffer shrinks.
  if (cls == QueryClass::kSelectJoin &&
      params_.join_buffer_size < kJoinBufferFloor) {
    ms *= static_cast<double>(kJoinBufferFloor) /
          static_cast<double>(std::max<common::Bytes>(
              16 * 1024, params_.join_buffer_size));
  }
  // Undersized thread stacks force conservative guard checks.
  if (params_.thread_stack < kThreadStackFloor) {
    ms *= 1.0 + 0.3 * (static_cast<double>(kThreadStackFloor -
                                           params_.thread_stack) /
                       static_cast<double>(kThreadStackFloor));
  }
  // Natural per-query variation.
  const double jitter = rng_.lognormal(0.0, 0.12);
  return common::SimTime::seconds(ms * jitter / 1000.0);
}

common::SimTime DbServer::transfer_cpu(common::Bytes bytes) const {
  const common::Bytes buf = std::max<common::Bytes>(512, params_.net_buffer_length);
  const std::int64_t syscalls = (bytes + buf - 1) / buf;
  return kSyscallCpu * static_cast<double>(std::max<std::int64_t>(1, syscalls));
}

void DbServer::execute(const DbQuery& query, DbResultFn done) {
  if (!active_) {
    done(DbResult{false});
    return;
  }
  ++stats_.queries;
  ++stats_.by_class[static_cast<int>(query.cls)];
  DbCall* call = calls_.acquire();
  call->self = this;
  call->query = query;
  call->done = std::move(done);
  call->t_enqueue = sim_.now();
  call->t_start = call->t_enqueue;

  // The grant closure holds only a non-owning pointer, so a rejected
  // acquire leaves `call` intact for the rejection path below.
  auto granted = [call] { call->self->on_connection(call); };
  static_assert(sim::SlotPool::Granted::stores_inline<decltype(granted)>(),
                "connection-grant closure must not allocate");
  if (!connections_->acquire(std::move(granted))) {
    // Unreachable with an unbounded connection queue, but keep the contract.
    DbResultFn cb = std::move(call->done);
    calls_.release(call);
    cb(DbResult{false});
  }
}

void DbServer::on_connection(DbCall* call) {
  // Connection slot granted: service starts; the gap back to t_enqueue is
  // the connection-queue wait.
  call->t_start = sim_.now();
  if (active_) {
    node_.alloc_memory(per_connection_memory());
    charged_memory_ += per_connection_memory();
  }
  executors_->acquire([call] { call->self->execute_body(call); });
}

void DbServer::execute_body(DbCall* call) {
  const DbQuery& query = call->query;
  // Table-cache behaviour: every active connection pins descriptors for
  // the tables it touches; demand beyond table_cache causes reopen churn
  // (close + open + .frm/.MYI reads) on the query path.
  const double descriptors_needed =
      static_cast<double>(connections_->in_use()) * kDescriptorsPerConnection;
  const double miss_prob = std::max(
      0.0, 1.0 - static_cast<double>(params_.table_cache) /
                     std::max(1.0, descriptors_needed));
  common::SimTime cpu = class_cpu(query.cls);
  call->table_miss = false;
  if (rng_.bernoulli(miss_prob)) {
    call->table_miss = true;
    ++stats_.table_cache_misses;
    cpu += common::SimTime::micros(900);
  }

  call->is_join = query.cls == QueryClass::kSelectJoin;
  if (call->is_join && active_) {
    node_.alloc_memory(params_.join_buffer_size);
    charged_memory_ += params_.join_buffer_size;
  }

  node_.cpu().submit(cpu, [call] { call->self->after_cpu(call); });
}

void DbServer::after_cpu(DbCall* call) {
  const DbQuery& query = call->query;
  // Data-path disk I/O.
  double io_prob = 0.0;
  common::Bytes io_bytes = 0;
  switch (query.cls) {
    case QueryClass::kSelectSimple: io_prob = 0.10; io_bytes = 8 * 1024; break;
    case QueryClass::kSelectJoin:   io_prob = 0.30; io_bytes = 32 * 1024; break;
    case QueryClass::kUpdate:       io_prob = 0.65; io_bytes = 8 * 1024; break;
    case QueryClass::kInsert:       io_prob = 0.0;  io_bytes = 0; break;
  }
  if (call->table_miss) {
    io_prob = std::min(1.0, io_prob + 0.30);  // .frm/.MYI reopen read
    io_bytes += 4 * 1024;
  }
  if (query.cls == QueryClass::kUpdate) {
    // Binlog-cache spill: a transaction whose row events exceed
    // binlog_cache_size falls back to an on-disk temporary file that is
    // written synchronously on the commit path.  This is the dominant
    // effect of binlog_cache_size under write-heavy mixes.
    const auto txn_bytes = static_cast<common::Bytes>(
        static_cast<double>(kBinlogMedianTxnBytes) *
        rng_.lognormal(0.0, 0.9));
    if (txn_bytes > params_.binlog_cache_size) {
      ++stats_.binlog_spills;
      io_prob = 1.0;
      io_bytes += txn_bytes;
    } else {
      binlog_fill_ += txn_bytes;
      if (binlog_fill_ >= params_.binlog_cache_size) {
        ++stats_.binlog_flushes;
        // Asynchronous group flush off the commit path.
        node_.disk().submit(node_.disk_time(binlog_fill_), {});
        binlog_fill_ = 0;
      }
    }
  } else {
    charge_write_path(query.cls);
  }

  if (io_bytes > 0 && rng_.bernoulli(io_prob)) {
    node_.disk().submit(node_.disk_time(io_bytes),
                        [call] { call->self->finish_query(call); });
  } else {
    finish_query(call);
  }
}

void DbServer::charge_write_path(QueryClass cls) {
  if (cls == QueryClass::kInsert) {
    const int queue_bound = std::max(1, params_.delayed_queue_size);
    if (delayed_pending_ >= queue_bound) {
      // Delayed queue full: fall back to a synchronous row write.
      ++stats_.sync_inserts;
      node_.disk().submit(node_.disk_time(kInsertRowBytes), {});
      return;
    }
    ++delayed_pending_;
    const int batch = std::max(1, std::min(params_.delayed_insert_limit,
                                           params_.delayed_queue_size));
    if (delayed_pending_ >= batch) {
      ++stats_.delayed_batches;
      node_.disk().submit(
          node_.disk_time(static_cast<common::Bytes>(delayed_pending_) *
                          kInsertRowBytes),
          {});
      delayed_pending_ = 0;
    }
  }
}

void DbServer::finish_query(DbCall* call) {
  node_.cpu().submit(transfer_cpu(call->query.result_bytes),
                     [call] { call->self->finish(call); });
}

void DbServer::finish(DbCall* call) {
  if (call->is_join && charged_memory_ >= params_.join_buffer_size) {
    node_.free_memory(params_.join_buffer_size);
    charged_memory_ -= params_.join_buffer_size;
  }
  executors_->release();
  if (charged_memory_ >= per_connection_memory()) {
    node_.free_memory(per_connection_memory());
    charged_memory_ -= per_connection_memory();
  }
  connections_->release();
  AH_OBS_TRACE_SPAN(trace_, call->query.request_id, obs::Hop::kDb,
                    node_.name().c_str(), call->t_enqueue, call->t_start,
                    sim_.now());
  DbResultFn done = std::move(call->done);
  calls_.release(call);
  done(DbResult{true});
}

}  // namespace ah::webstack
