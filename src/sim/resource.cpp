#include "sim/resource.hpp"
#include "common/analysis.hpp"

#include <cassert>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

Resource::Resource(Simulator& sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers),
      last_account_(sim.now()) {
  assert(servers_ >= 0);
}

void Resource::account_now() {
  const common::SimTime now = sim_.now();
  const std::int64_t elapsed = (now - last_account_).as_micros();
  if (elapsed > 0) {
    busy_integral_ += static_cast<std::int64_t>(busy_) * elapsed;
    queue_integral_ +=
        static_cast<std::int64_t>(queue_.size()) * elapsed;
    last_account_ = now;
  }
}

void Resource::submit(common::SimTime demand, Completion on_complete) {
  account_now();
  if (busy_ < servers_) {
    start_service(demand, on_complete);
    return;
  }
  queue_.push_back(Job{demand, on_complete});
}

void Resource::set_slowdown(double slowdown) {
  assert(slowdown > 0.0);
  slowdown_ = slowdown;
}

std::int64_t Resource::busy_integral() const {
  const_cast<Resource*>(this)->account_now();
  return busy_integral_;
}

double Resource::utilization_since(std::int64_t integral_at_t0,
                                   common::SimTime t0) const {
  const std::int64_t window = (sim_.now() - t0).as_micros();
  if (window <= 0 || servers_ <= 0) return 0.0;
  const std::int64_t busy_time = busy_integral() - integral_at_t0;
  return static_cast<double>(busy_time) /
         (static_cast<double>(servers_) * static_cast<double>(window));
}

std::int64_t Resource::queue_integral() const {
  const_cast<Resource*>(this)->account_now();
  return queue_integral_;
}

std::size_t Resource::clear_queue() {
  account_now();
  const std::size_t dropped = queue_.size();
  rejected_ += dropped;
  queue_.clear();
  return dropped;
}

void Resource::start_pending() {
  while (busy_ < servers_ && !queue_.empty()) {
    const Job job = queue_.take_front();
    start_service(job.demand, job.on_complete);
  }
}

void Resource::start_service(common::SimTime demand, Completion on_complete) {
  ++busy_;
  sim_.schedule(demand * slowdown_,
                [this, on_complete] { on_service_done(on_complete); });
}

void Resource::on_service_done(Completion on_complete) {
  account_now();
  --busy_;
  ++completed_;
  start_pending();
  if (on_complete) on_complete();
}

}  // namespace ah::sim
