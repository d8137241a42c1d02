#include "webstack/app_server.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <cassert>

AH_HOT_PATH_FILE;

namespace ah::webstack {

namespace {
/// Base footprint of the JVM + Tomcat with no request threads.
constexpr common::Bytes kBaseProcess = 96LL * 1024 * 1024;
/// Java thread stack (fixed by the JVM, not a Harmony tunable here).
constexpr common::Bytes kThreadStack = 192LL * 1024;
/// CPU to spawn one connector thread on demand.
constexpr auto kThreadSpawnCpu = common::SimTime::millis(2);
/// CPU charged once per restart (JVM warm enough to reuse; container redeploy).
constexpr auto kRestartCpu = common::SimTime::millis(400);
/// CPU per socket read/write syscall on the connector path.
constexpr auto kSyscallCpu = common::SimTime::micros(14);
}  // namespace

AppServer::AppServer(sim::Simulator& sim, cluster::Node& node,
                     DbQueryFn db_query, const AppParams& params)
    : sim_(sim), node_(node), db_query_(std::move(db_query)), params_(params) {
  AH_ASSERT_POOLED_CALL(AppCall);
  AH_LINT_ALLOW(hot_path_alloc, "pool construction: server start only");
  http_pool_ = std::make_unique<sim::SlotPool>(
      sim_, node_.name() + ".http",
      sim::SlotPool::Config{params_.max_processors,
                            static_cast<std::size_t>(params_.accept_count)});
  AH_LINT_ALLOW(hot_path_alloc, "pool construction: server start only");
  ajp_pool_ = std::make_unique<sim::SlotPool>(
      sim_, node_.name() + ".ajp",
      sim::SlotPool::Config{
          params_.ajp_max_processors,
          static_cast<std::size_t>(params_.ajp_accept_count)});
  http_spawned_ = std::min(params_.min_processors, params_.max_processors);
  ajp_spawned_ =
      std::min(params_.ajp_min_processors, params_.ajp_max_processors);
  charged_memory_ = kBaseProcess + http_spawned_ * http_thread_memory() +
                    ajp_spawned_ * ajp_thread_memory();
  node_.alloc_memory(charged_memory_);
}

AppServer::~AppServer() { release_memory_and_reset(); }

common::Bytes AppServer::http_thread_memory() const {
  // Stack plus input and output connector buffers.
  return kThreadStack + 2 * params_.buffer_size;
}

common::Bytes AppServer::ajp_thread_memory() const {
  return kThreadStack + 8 * 1024;  // AJP packet buffer is fixed 8 KiB
}

void AppServer::release_memory_and_reset() {
  if (charged_memory_ > 0) {
    node_.free_memory(charged_memory_);
    charged_memory_ = 0;
  }
}

void AppServer::reconfigure(const AppParams& params) {
  // Restart: pools resize, spawned threads reset to the configured minimum,
  // memory re-charged for the new footprint.  In-flight requests complete
  // under the new limits (SlotPool handles shrink gracefully).  A stopped
  // server only takes the parameters; set_active(true) charges them.
  release_memory_and_reset();
  params_ = params;
  http_pool_->set_slots(params_.max_processors);
  ajp_pool_->set_slots(params_.ajp_max_processors);
  http_spawned_ = std::min(params_.min_processors, params_.max_processors);
  ajp_spawned_ =
      std::min(params_.ajp_min_processors, params_.ajp_max_processors);
  if (!active_) return;
  charged_memory_ = kBaseProcess + http_spawned_ * http_thread_memory() +
                    ajp_spawned_ * ajp_thread_memory();
  node_.alloc_memory(charged_memory_);
  node_.cpu().submit(kRestartCpu, {});
}

void AppServer::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!active_) {
    release_memory_and_reset();
  } else {
    http_spawned_ = std::min(params_.min_processors, params_.max_processors);
    ajp_spawned_ =
        std::min(params_.ajp_min_processors, params_.ajp_max_processors);
    charged_memory_ = kBaseProcess + http_spawned_ * http_thread_memory() +
                      ajp_spawned_ * ajp_thread_memory();
    node_.alloc_memory(charged_memory_);
    node_.cpu().submit(kRestartCpu, {});
  }
}

common::SimTime AppServer::io_cpu(common::Bytes bytes) const {
  const std::int64_t syscalls =
      (bytes + params_.buffer_size - 1) / std::max<common::Bytes>(
                                              1, params_.buffer_size);
  return kSyscallCpu * static_cast<double>(std::max<std::int64_t>(1, syscalls)) +
         common::SimTime::micros(bytes / 16384);  // copy cost
}

common::SimTime AppServer::charge_thread_growth(sim::SlotPool& pool,
                                                int& spawned,
                                                common::Bytes per_thread_mem) {
  common::SimTime penalty = common::SimTime::zero();
  const int in_use = pool.in_use();
  while (spawned < in_use) {
    ++spawned;
    ++stats_.threads_spawned;
    penalty += kThreadSpawnCpu;
    if (active_) {
      node_.alloc_memory(per_thread_mem);
      charged_memory_ += per_thread_mem;
    }
  }
  return penalty;
}

void AppServer::handle(const Request& request, ResponseFn done) {
  assert(request.profile != nullptr);
  if (!active_) {
    ++stats_.refused;
    done(Response{false, Response::Origin::kError, 0});
    return;
  }
  AppCall* call = calls_.acquire();
  call->self = this;
  call->request = request;
  call->done = std::move(done);
  call->t_enqueue = sim_.now();
  call->t_start = call->t_enqueue;

  // The grant closure holds only a non-owning pointer, so when the pool
  // rejects the acquire the discarded closure leaves `call` (and its
  // captured `done`) intact for the rejection path below.
  auto granted = [call] { call->self->on_http_granted(call); };
  static_assert(sim::SlotPool::Granted::stores_inline<decltype(granted)>(),
                "pool-grant closure must not allocate");
  if (!http_pool_->acquire(std::move(granted))) {
    ++stats_.rejected_http;
    fail(call);
  }
}

void AppServer::on_http_granted(AppCall* call) {
  // Connector thread granted: service starts; the gap back to t_enqueue is
  // the accept-queue wait.
  call->t_start = sim_.now();
  const common::SimTime spawn_penalty =
      charge_thread_growth(*http_pool_, http_spawned_, http_thread_memory());
  // Read the request off the socket, then run the servlet.
  node_.cpu().submit(spawn_penalty + io_cpu(512),
                     [call] { call->self->run_servlet(call); });
}

void AppServer::run_servlet(AppCall* call) {
  // Non-owning grant closure: see handle() for the rejection-path rationale.
  if (!ajp_pool_->acquire([call] { call->self->on_ajp_granted(call); })) {
    ++stats_.rejected_ajp;
    http_pool_->release();
    fail(call);
  }
}

void AppServer::on_ajp_granted(AppCall* call) {
  const common::SimTime spawn_penalty =
      charge_thread_growth(*ajp_pool_, ajp_spawned_, ajp_thread_memory());
  call->remaining = call->request.profile->total_queries();
  node_.cpu().submit(spawn_penalty + call->request.profile->app_cpu,
                     [call] { call->self->issue_queries(call); });
}

void AppServer::issue_queries(AppCall* call) {
  const Request& request = call->request;
  if (call->remaining == 0) {
    ajp_pool_->release();
    call->origin = request.profile->needs_db() ? Response::Origin::kDb
                                               : Response::Origin::kApp;
    respond(call);
    return;
  }
  // Walk the per-class counts to find the class of the `remaining`-th query
  // (queries of a class are issued together, classes in enum order).
  int index = request.profile->total_queries() - call->remaining;
  QueryClass cls = QueryClass::kSelectSimple;
  for (int c = 0; c < kQueryClassCount; ++c) {
    if (index < request.profile->queries[c]) {
      cls = static_cast<QueryClass>(c);
      break;
    }
    index -= request.profile->queries[c];
  }

  DbQuery query;
  query.cls = cls;
  query.request_id = request.id;
  // TPC-W touches 8 tables; spread queries over them deterministically from
  // the request identity so the DB table-cache sees a realistic working set.
  query.table_id =
      (request.object_id + static_cast<std::uint64_t>(call->remaining)) % 8;
  switch (cls) {
    case QueryClass::kSelectSimple: query.result_bytes = 1024; break;
    case QueryClass::kSelectJoin:   query.result_bytes = 6 * 1024; break;
    case QueryClass::kUpdate:       query.result_bytes = 128; break;
    case QueryClass::kInsert:       query.result_bytes = 128; break;
  }

  ++stats_.db_queries;
  auto on_result = [call](const DbResult& result) {
    call->self->on_db_result(call, result);
  };
  static_assert(DbResultFn::stores_inline<decltype(on_result)>(),
                "DB-result continuation must not allocate");
  db_query_(query, node_, std::move(on_result));
}

void AppServer::on_db_result(AppCall* call, const DbResult& result) {
  if (!result.ok) {
    ajp_pool_->release();
    http_pool_->release();
    fail(call);
    return;
  }
  --call->remaining;
  issue_queries(call);
}

void AppServer::respond(AppCall* call) {
  // Serialize the generated page back through the connector buffers.
  node_.cpu().submit(io_cpu(call->request.response_bytes),
                     [call] { call->self->finish(call); });
}

void AppServer::finish(AppCall* call) {
  http_pool_->release();
  ++stats_.served;
  AH_OBS_TRACE_SPAN(trace_, call->request.id, obs::Hop::kApp,
                    node_.name().c_str(), call->t_enqueue, call->t_start,
                    sim_.now());
  const Response response{true, call->origin, call->request.response_bytes};
  ResponseFn done = std::move(call->done);
  calls_.release(call);
  done(response);
}

void AppServer::fail(AppCall* call) {
  ResponseFn done = std::move(call->done);
  calls_.release(call);
  done(Response{false, Response::Origin::kError, 0});
}

}  // namespace ah::webstack
