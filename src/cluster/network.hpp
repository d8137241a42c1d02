// Inter-node message transfer.
//
// A transfer occupies the sender's NIC (a NicLink: serialization, first come
// first served) and then takes a fixed propagation latency; the
// receiver-side cost is folded into the per-request CPU demands of the
// receiving server.  Each message is one event, its delivery, scheduled at
// send time for the end of its serialization plus the latency.  One
// queueing interaction per message is what measurement of the real
// testbed's 100 Mbps switched Ethernet justifies: the switch was never the
// bottleneck, the endpoints were.
//
// Fault injection: a link fault (set_link_fault) makes matching messages
// eligible for probabilistic drop and/or an added propagation delay —
// modelling a flaky switch port or congested uplink.  The drop decision
// draws from a dedicated RNG that is consulted *only* while a matching
// fault is installed, so runs with no faults consume no randomness here
// and stay byte-identical to the pre-fault build.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.hpp"
#include "common/analysis.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

/// Wildcard for link-fault endpoints: matches any node.
inline constexpr NodeId kAnyNode = static_cast<NodeId>(-1);

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim), fault_rng_(0x11fec7) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Sends `bytes` from `from`; invokes `on_delivered` after the sender's
  /// NIC has serialized them and the propagation latency has passed.
  /// Local (same-node) delivery is free and immediate, matching loopback
  /// behaviour.  Returns false when an installed link fault dropped the
  /// message — `on_delivered` is then destroyed uninvoked (the frame still
  /// occupies the sender's NIC), and the caller's hop timeout (if any) is
  /// what eventually notices the loss, exactly as on a real network.
  bool send(Node& from, Node& to, common::Bytes bytes,
            sim::EventFn on_delivered);

  // -- Link faults (driven by sim::FaultInjector) ---------------------------
  /// Degrades the directed link from->to (kAnyNode matches either side):
  /// each matching message is dropped with probability `drop` and any
  /// survivor incurs `extra_delay` on top of propagation latency.
  /// Re-installing an existing pair updates it in place.
  void set_link_fault(NodeId from, NodeId to, double drop,
                      common::SimTime extra_delay);
  /// Restores the directed link from->to.  No-op when not degraded.
  void clear_link_fault(NodeId from, NodeId to);

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] common::Bytes bytes_sent() const { return bytes_; }

 private:
  struct LinkFault {
    NodeId from = kAnyNode;
    NodeId to = kAnyNode;
    double drop = 0.0;
    common::SimTime extra_delay = common::SimTime::zero();
  };

  /// First installed fault matching the directed pair, or nullptr.
  [[nodiscard]] const LinkFault* match_fault(NodeId from, NodeId to) const;

  sim::Simulator& sim_;
  /// Installed link faults.  Mutated only by (rare) fault events; empty in
  /// steady state, so the per-message check is one branch.
  std::vector<LinkFault> faults_;
  common::Rng fault_rng_;
  std::uint64_t messages_ = 0;
  std::uint64_t dropped_ = 0;
  common::Bytes bytes_ = 0;
};

}  // namespace ah::cluster
