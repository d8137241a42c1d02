#include "cluster/nic_link.hpp"
#include "common/analysis.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

void NicLink::forget_started() {
  while (!waiting_.empty() && waiting_.front().start <= sim_.now()) {
    waiting_.pop_front();
  }
}

common::SimTime NicLink::book(common::SimTime service) {
  forget_started();
  const common::SimTime start = std::max(sim_.now(), busy_until_);
  busy_until_ = start + service;
  work_us_ += service.as_micros();
  ++messages_;
  return start;
}

std::size_t NicLink::drop_waiting() {
  forget_started();
  if (waiting_.empty()) return 0;
  // Messages are back to back behind the one in service, so the first
  // waiting message starts where that one ends.
  busy_until_ = waiting_.front().start;
  const std::size_t dropped = waiting_.size();
  while (!waiting_.empty()) {
    const Waiting& message = waiting_.front();
    work_us_ -= message.service.as_micros();
    if (message.delivery != 0) sim_.cancel(message.delivery);
    waiting_.pop_front();
  }
  return dropped;
}

double NicLink::utilization_since(std::int64_t integral_at_t0,
                                  common::SimTime t0) const {
  const std::int64_t window = (sim_.now() - t0).as_micros();
  if (window <= 0) return 0.0;
  return static_cast<double>(busy_integral() - integral_at_t0) /
         static_cast<double>(window);
}

}  // namespace ah::cluster
