#include "cluster/network.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::cluster {

namespace {
bool endpoint_matches(NodeId pattern, NodeId id) {
  return pattern == kAnyNode || pattern == id;
}
}  // namespace

bool Network::send(Node& from, Node& to, common::Bytes bytes,
                   sim::EventFn on_delivered) {
  ++messages_;
  bytes_ += bytes;
  common::SimTime extra = common::SimTime::zero();
  if (!faults_.empty()) {
    if (const LinkFault* fault = match_fault(from.id(), to.id())) {
      // The drop die is rolled at send time: NIC serialization is still
      // charged (the sender pushed the frame; the network lost it).
      if (fault->drop > 0.0 && fault_rng_.uniform() < fault->drop) {
        ++dropped_;
        from.nic().send_lost(from.nic_time(bytes));
        return false;
      }
      extra = fault->extra_delay;
    }
  }
  if (from.id() == to.id()) {
    // Loopback: treat as immediate (scheduled at now, preserving event
    // ordering but costing no NIC time).
    sim_.schedule(common::SimTime::zero(), std::move(on_delivered));
    return true;
  }
  from.nic().send(from.nic_time(bytes), Node::kNicLatency + extra,
                  std::move(on_delivered));
  return true;
}

void Network::set_link_fault(NodeId from, NodeId to, double drop,
                             common::SimTime extra_delay) {
  for (LinkFault& fault : faults_) {
    if (fault.from == from && fault.to == to) {
      fault.drop = drop;
      fault.extra_delay = extra_delay;
      return;
    }
  }
  faults_.push_back(LinkFault{from, to, drop, extra_delay});
}

void Network::clear_link_fault(NodeId from, NodeId to) {
  faults_.erase(std::remove_if(faults_.begin(), faults_.end(),
                               [&](const LinkFault& fault) {
                                 return fault.from == from && fault.to == to;
                               }),
                faults_.end());
}

const Network::LinkFault* Network::match_fault(NodeId from, NodeId to) const {
  for (const LinkFault& fault : faults_) {
    if (endpoint_matches(fault.from, from) && endpoint_matches(fault.to, to)) {
      return &fault;
    }
  }
  return nullptr;
}

}  // namespace ah::cluster
