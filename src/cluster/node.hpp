// A cluster machine: CPU cores, one disk, one NIC, and a memory budget.
//
// Mirrors the paper's testbed nodes (dual Athlon, 1 GiB RAM, 100 Mbps
// Ethernet).  CPU and disk contention is modelled with sim::Resource
// queues and the NIC with a NicLink, a one-server FIFO kept as arithmetic;
// memory is a capacity counter whose over-subscription translates into a CPU
// slowdown (paging), which is how "too many threads / too large buffers"
// configurations hurt instead of help — the cliff the tuner must avoid.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/nic_link.hpp"
#include "common/analysis.hpp"
#include "common/units.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

using NodeId = std::uint32_t;

class Node {
 public:
  // The testbed machine; every node is one (paper §III).
  static constexpr int kCpuCores = 2;  // dual Athlon
  static constexpr common::Bytes kMemory = 1024LL * 1024 * 1024;  // 1 GiB
  static constexpr double kDiskMbPerS = 35.0;  // sequential-ish throughput
  static constexpr double kDiskSeekS = 0.009;  // seek + rotational latency
  static constexpr double kNicMbitPerS = 100.0;  // 100 Mbps Ethernet
  static constexpr common::SimTime kNicLatency = common::SimTime::micros(200);

  Node(sim::Simulator& sim, NodeId id, std::string name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// CPU work: `demand` is time on one core; actual service time is scaled
  /// by the current paging and fail-slow slowdown.
  [[nodiscard]] sim::Resource& cpu() { return *cpu_; }
  [[nodiscard]] sim::Resource& disk() { return *disk_; }
  [[nodiscard]] NicLink& nic() { return nic_; }

  /// Converts a byte count into disk service time on this node.
  [[nodiscard]] common::SimTime disk_time(common::Bytes bytes) const;
  /// Converts a byte count into NIC serialization time (latency excluded;
  /// the caller adds kNicLatency once per message).
  [[nodiscard]] common::SimTime nic_time(common::Bytes bytes) const;

  // -- Memory accounting ----------------------------------------------------
  /// Reserves memory.  Reservations beyond physical capacity are allowed but
  /// engage a paging slowdown on the CPU.
  void alloc_memory(common::Bytes bytes);
  void free_memory(common::Bytes bytes);
  [[nodiscard]] common::Bytes memory_used() const { return memory_used_; }
  /// used / capacity; > 1 when overcommitted.
  [[nodiscard]] double memory_pressure() const;

  // -- Fault state (driven by sim::FaultInjector via the system model) ------
  /// Ground truth used by health probes.  A dead node still exists (its
  /// resources keep draining in-service work) but refuses new requests.
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// Routing view maintained by cluster::HealthChecker: lags `alive()` by
  /// the probe thresholds, which is exactly the mark-down/mark-up window
  /// the fault-recovery experiments measure.  Defaults to true so runs
  /// without a health checker behave as before.
  [[nodiscard]] bool marked_up() const { return marked_up_; }
  void set_marked_up(bool up) { marked_up_ = up; }

  /// Fail-slow multiplier (>= 1.0) applied to all CPU service on this node;
  /// models a degraded machine (thermal throttling, a sick disk driver)
  /// that still answers probes.  1.0 = healthy.
  void set_fault_slowdown(double factor);

  // -- Utilization probes (consumed by sim::UtilizationMonitor) -------------
  /// Each call returns utilization since the previous call to the same probe.
  [[nodiscard]] double cpu_utilization_probe();
  [[nodiscard]] double disk_utilization_probe();
  [[nodiscard]] double nic_utilization_probe();

 private:
  /// Re-derives the CPU slowdown from memory pressure and the fail-slow
  /// factor.
  void refresh_cpu_slowdown();

  sim::Simulator& sim_;
  NodeId id_;
  std::string name_;

  std::unique_ptr<sim::Resource> cpu_;
  std::unique_ptr<sim::Resource> disk_;
  NicLink nic_;

  common::Bytes memory_used_ = 0;
  bool alive_ = true;
  bool marked_up_ = true;
  double fault_slowdown_ = 1.0;

  struct ProbeSnapshot {
    std::int64_t integral = 0;
    common::SimTime at = common::SimTime::zero();
  };
  ProbeSnapshot cpu_snap_;
  ProbeSnapshot disk_snap_;
  ProbeSnapshot nic_snap_;
};

}  // namespace ah::cluster
