// A node's NIC: one first-come-first-served link kept as arithmetic.
//
// A message occupies the link for its serialization time and is delivered
// one propagation latency after that ends.  It starts when the link frees
// up, at max(now, busy-until), so its delivery time is known the moment it
// is sent: send() schedules that one event, and no event marks the end of
// serialization.  The link keeps a busy-until time, the work booked so far
// and a ring of the messages that have not started yet, each with its
// delivery event id.  That reproduces a one-server sim::Resource to the
// microsecond (the same start and end times, the same crash drops and the
// same busy integral) at one event per message instead of a service
// completion plus a delivery.
//
//  - Nothing slows a NIC, so a message serializes for exactly its demand.
//  - A lost message (send_lost: the network dropped it at send) still
//    occupies the link but schedules nothing.
//  - drop_waiting() (a crash) drops every message that has not started:
//    its delivery is cancelled, its work is removed, and busy-until rolls
//    back to the end of the message in service.  A message that starts
//    exactly at the crash instant counts as in service.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/analysis.hpp"
#include "common/ring_buffer.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

class NicLink {
 public:
  explicit NicLink(sim::Simulator& sim) : sim_(sim) {}

  NicLink(const NicLink&) = delete;
  NicLink& operator=(const NicLink&) = delete;

  /// Queues `service` of serialization behind the messages already sent
  /// and schedules `on_delivered` `latency` after it ends.
  template <typename F>
  void send(common::SimTime service, common::SimTime latency,
            F&& on_delivered) {
    const common::SimTime start = book(service);
    const sim::EventId delivery =
        sim_.schedule_at(busy_until_ + latency, std::forward<F>(on_delivered));
    if (start > sim_.now()) waiting_.push_back({start, service, delivery});
  }

  /// Occupies the link for `service` and delivers nothing.
  void send_lost(common::SimTime service) {
    const common::SimTime start = book(service);
    if (start > sim_.now()) waiting_.push_back({start, service, 0});
  }

  /// Drops every message that has not started serializing (see the file
  /// comment).  Returns the number dropped.
  std::size_t drop_waiting();

  /// When the last message booked so far finishes serializing.
  [[nodiscard]] common::SimTime busy_until() const { return busy_until_; }
  /// Messages booked, lost and dropped ones included.
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

  /// Busy time so far (µs), as sim::Resource::busy_integral() counts it.
  [[nodiscard]] std::int64_t busy_integral() const {
    return work_us_ -
           std::max<std::int64_t>((busy_until_ - sim_.now()).as_micros(), 0);
  }
  /// Utilization since a snapshot of busy_integral() taken at `t0`.
  [[nodiscard]] double utilization_since(std::int64_t integral_at_t0,
                                         common::SimTime t0) const;

 private:
  /// A message that had not started when it was sent.
  struct Waiting {
    common::SimTime start;
    common::SimTime service;
    sim::EventId delivery = 0;  // 0 for a lost message
  };

  /// Removes the waiting messages that have started by now.
  void forget_started();
  /// Books `service` behind the messages already sent; returns its start.
  common::SimTime book(common::SimTime service);

  sim::Simulator& sim_;
  common::SimTime busy_until_ = common::SimTime::zero();
  /// Serialization booked so far (µs), less what drop_waiting() removed.
  std::int64_t work_us_ = 0;
  /// Not-yet-started messages in start order; started ones leave lazily.
  common::RingBuffer<Waiting> waiting_;
  std::uint64_t messages_ = 0;
};

}  // namespace ah::cluster
