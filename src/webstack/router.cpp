#include "webstack/router.hpp"
#include "common/analysis.hpp"

#include <algorithm>

AH_HOT_PATH_FILE;

namespace ah::webstack {

namespace {
template <typename T>
bool erase_ptr(std::vector<T*>& vec, T* ptr) {
  const auto it = std::find(vec.begin(), vec.end(), ptr);
  if (it == vec.end()) return false;
  vec.erase(it);
  return true;
}

/// Backends whose node is currently marked up (health-checker view).
template <typename T>
std::size_t marked_up_count(const std::vector<T*>& backends) {
  std::size_t healthy = 0;
  for (T* backend : backends) {
    if (backend->node().marked_up()) ++healthy;
  }
  return healthy;
}
}  // namespace

// -- AppTierRouter -----------------------------------------------------------

AppTierRouter::AppTierRouter(cluster::Network& network,
                             cluster::BalancePolicy policy)
    : network_(network), balancer_(policy) {
  AH_ASSERT_POOLED_CALL(Call);
}

void AppTierRouter::add_backend(AppServer* server) {
  backends_.push_back(server);
  balancer_.reset();
}

bool AppTierRouter::remove_backend(AppServer* server) {
  const bool removed = erase_ptr(backends_, server);
  if (removed) balancer_.reset();
  return removed;
}

void AppTierRouter::route(const Request& request, cluster::Node& from,
                          ResponseFn done) {
  if (backends_.empty()) {
    done(Response{false, Response::Origin::kError, 0});
    return;
  }
  if (marked_up_count(backends_) == 0) {
    // Whole tier marked down: fail fast instead of queueing on a corpse.
    ++stats_.fast_fails;
    done(Response{false, Response::Origin::kError, 0});
    return;
  }
  const std::size_t pick = balancer_.pick(
      backends_.size(),
      [this](std::size_t i) { return static_cast<double>(backends_[i]->load()); },
      [this](std::size_t i) { return backends_[i]->node().marked_up(); });
  Call* call = calls_.acquire();
  call->self = this;
  call->backend = backends_[pick];
  call->from = &from;
  call->request = request;
  call->done = std::move(done);
  call->routed_at = network_.simulator().now();
  call->timeout_id = 0;
  const std::uint32_t gen = call->generation;
  network_.send(from, call->backend->node(), kForwardRequestBytes,
                [call, gen] {
                  if (call->generation == gen) call->self->on_forwarded(call);
                });
  if (hop_timeout_ > common::SimTime::zero()) {
    call->timeout_id = network_.simulator().schedule(
        hop_timeout_, [call, gen] {
          if (call->generation == gen) call->self->on_timeout(call);
        });
  }
}

void AppTierRouter::on_forwarded(Call* call) {
  const std::uint32_t gen = call->generation;
  call->backend->handle(call->request, [call, gen](const Response& response) {
    if (call->generation == gen) call->self->on_response(call, response);
  });
}

void AppTierRouter::on_response(Call* call, const Response& response) {
  call->response = response;
  const std::uint32_t gen = call->generation;
  network_.send(call->backend->node(), *call->from,
                std::max<common::Bytes>(128, response.bytes), [call, gen] {
                  if (call->generation == gen) call->self->deliver(call);
                });
}

void AppTierRouter::on_timeout(Call* call) {
  ++stats_.timeouts;
  finish(call, Response{false, Response::Origin::kError, 0});
}

void AppTierRouter::deliver(Call* call) { finish(call, call->response); }

void AppTierRouter::finish(Call* call, const Response& response) {
  if (call->timeout_id != 0) {
    network_.simulator().cancel(call->timeout_id);
    call->timeout_id = 0;
  }
  AH_OBS_RECORD_SPAN(hop_histogram_,
                     network_.simulator().now() - call->routed_at);
  // Invalidate every outstanding continuation (late replies, the timeout),
  // then release the slot before invoking `done` — it may reenter.
  ++call->generation;
  ResponseFn done = std::move(call->done);
  calls_.release(call);
  done(response);
}

// -- DbTierRouter ------------------------------------------------------------

DbTierRouter::DbTierRouter(cluster::Network& network,
                           cluster::BalancePolicy policy)
    : network_(network), balancer_(policy) {
  AH_ASSERT_POOLED_CALL(Call);
}

void DbTierRouter::add_backend(DbServer* server) {
  backends_.push_back(server);
  balancer_.reset();
}

bool DbTierRouter::remove_backend(DbServer* server) {
  const bool removed = erase_ptr(backends_, server);
  if (removed) balancer_.reset();
  return removed;
}

void DbTierRouter::route(const DbQuery& query, cluster::Node& from,
                         DbResultFn done) {
  if (backends_.empty()) {
    done(DbResult{false});
    return;
  }
  if (marked_up_count(backends_) == 0) {
    ++stats_.fast_fails;
    done(DbResult{false});
    return;
  }
  const std::size_t pick = balancer_.pick(
      backends_.size(),
      [this](std::size_t i) { return static_cast<double>(backends_[i]->load()); },
      [this](std::size_t i) { return backends_[i]->node().marked_up(); });
  Call* call = calls_.acquire();
  call->self = this;
  call->backend = backends_[pick];
  call->from = &from;
  call->query = query;
  call->done = std::move(done);
  call->routed_at = network_.simulator().now();
  call->timeout_id = 0;
  const std::uint32_t gen = call->generation;
  network_.send(from, call->backend->node(), kQueryRequestBytes, [call, gen] {
    if (call->generation == gen) call->self->on_forwarded(call);
  });
  if (hop_timeout_ > common::SimTime::zero()) {
    call->timeout_id = network_.simulator().schedule(
        hop_timeout_, [call, gen] {
          if (call->generation == gen) call->self->on_timeout(call);
        });
  }
}

void DbTierRouter::on_forwarded(Call* call) {
  const std::uint32_t gen = call->generation;
  call->backend->execute(call->query, [call, gen](const DbResult& result) {
    if (call->generation == gen) call->self->on_result(call, result);
  });
}

void DbTierRouter::on_result(Call* call, const DbResult& result) {
  call->result = result;
  const std::uint32_t gen = call->generation;
  network_.send(call->backend->node(), *call->from, call->query.result_bytes,
                [call, gen] {
                  if (call->generation == gen) call->self->deliver(call);
                });
}

void DbTierRouter::on_timeout(Call* call) {
  ++stats_.timeouts;
  finish(call, DbResult{false});
}

void DbTierRouter::deliver(Call* call) { finish(call, call->result); }

void DbTierRouter::finish(Call* call, const DbResult& result) {
  if (call->timeout_id != 0) {
    network_.simulator().cancel(call->timeout_id);
    call->timeout_id = 0;
  }
  AH_OBS_RECORD_SPAN(hop_histogram_,
                     network_.simulator().now() - call->routed_at);
  ++call->generation;
  DbResultFn done = std::move(call->done);
  calls_.release(call);
  done(result);
}

// -- FrontendRouter ----------------------------------------------------------

FrontendRouter::FrontendRouter(sim::Simulator& sim,
                               cluster::BalancePolicy policy,
                               common::SimTime client_latency)
    : sim_(sim), balancer_(policy), client_latency_(client_latency) {
  AH_ASSERT_POOLED_CALL(Call);
}

void FrontendRouter::add_backend(ProxyServer* server) {
  backends_.push_back(server);
  balancer_.reset();
}

bool FrontendRouter::remove_backend(ProxyServer* server) {
  const bool removed = erase_ptr(backends_, server);
  if (removed) balancer_.reset();
  return removed;
}

void FrontendRouter::route(const Request& request, ResponseFn done) {
  if (backends_.empty()) {
    done(Response{false, Response::Origin::kError, 0});
    return;
  }
  if (marked_up_count(backends_) == 0) {
    ++stats_.fast_fails;
    done(Response{false, Response::Origin::kError, 0});
    return;
  }
  const std::size_t pick = balancer_.pick(
      backends_.size(),
      [this](std::size_t i) { return static_cast<double>(backends_[i]->load()); },
      [this](std::size_t i) { return backends_[i]->node().marked_up(); });
  Call* call = calls_.acquire();
  call->self = this;
  call->backend = backends_[pick];
  call->request = request;
  call->done = std::move(done);
  call->routed_at = sim_.now();
  call->timeout_id = 0;
  const std::uint32_t gen = call->generation;
  sim_.schedule(client_latency_, [call, gen] {
    if (call->generation == gen) call->self->on_client_arrived(call);
  });
  if (hop_timeout_ > common::SimTime::zero()) {
    call->timeout_id = sim_.schedule(hop_timeout_, [call, gen] {
      if (call->generation == gen) call->self->on_timeout(call);
    });
  }
}

void FrontendRouter::on_client_arrived(Call* call) {
  const std::uint32_t gen = call->generation;
  call->backend->handle(call->request, [call, gen](const Response& response) {
    if (call->generation == gen) call->self->on_response(call, response);
  });
}

void FrontendRouter::on_response(Call* call, const Response& response) {
  // Response serialization on the proxy's NIC, then client latency.
  call->response = response;
  cluster::Node& node = call->backend->node();
  const std::uint32_t gen = call->generation;
  node.nic().submit(
      node.nic_time(std::max<common::Bytes>(128, response.bytes)),
      [call, gen] {
        if (call->generation == gen) call->self->on_nic_done(call);
      });
}

void FrontendRouter::on_nic_done(Call* call) {
  const std::uint32_t gen = call->generation;
  sim_.schedule(client_latency_, [call, gen] {
    if (call->generation == gen) call->self->deliver(call);
  });
}

void FrontendRouter::on_timeout(Call* call) {
  ++stats_.timeouts;
  finish(call, Response{false, Response::Origin::kError, 0});
}

void FrontendRouter::deliver(Call* call) { finish(call, call->response); }

void FrontendRouter::finish(Call* call, const Response& response) {
  if (call->timeout_id != 0) {
    sim_.cancel(call->timeout_id);
    call->timeout_id = 0;
  }
  AH_OBS_RECORD_SPAN(hop_histogram_, sim_.now() - call->routed_at);
  ++call->generation;
  ResponseFn done = std::move(call->done);
  calls_.release(call);
  done(response);
}

}  // namespace ah::webstack
