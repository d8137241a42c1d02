#include "cluster/node.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/analysis.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

namespace {

/// Paging penalty: no effect up to 95% of physical memory, then the CPU
/// slows sharply.  The exponent keeps mild overcommit survivable while
/// making heavy overcommit (e.g. maximal thread counts × maximal buffers)
/// clearly worse than a tuned configuration.
double paging_slowdown(double pressure) {
  if (pressure <= 0.95) return 1.0;
  const double excess = pressure - 0.95;
  return 1.0 + 8.0 * excess + 40.0 * excess * excess;
}

}  // namespace

Node::Node(sim::Simulator& sim, NodeId id, std::string name)
    : sim_(sim), id_(id), name_(std::move(name)), nic_(sim) {
  AH_LINT_ALLOW(hot_path_alloc, "node construction: resources allocated once at startup");
  cpu_ = std::make_unique<sim::Resource>(sim_, name_ + ".cpu", kCpuCores);
  AH_LINT_ALLOW(hot_path_alloc, "node construction: resources allocated once at startup");
  disk_ = std::make_unique<sim::Resource>(sim_, name_ + ".disk", 1);
}

common::SimTime Node::disk_time(common::Bytes bytes) const {
  // Seek/overhead floor plus transfer proportional to size.
  const double seconds =
      kDiskSeekS + static_cast<double>(bytes) / (kDiskMbPerS * 1e6);
  return common::SimTime::seconds(seconds);
}

common::SimTime Node::nic_time(common::Bytes bytes) const {
  const double seconds =
      static_cast<double>(bytes) * 8.0 / (kNicMbitPerS * 1e6);
  return common::SimTime::seconds(seconds);
}

void Node::alloc_memory(common::Bytes bytes) {
  assert(bytes >= 0);
  memory_used_ += bytes;
  refresh_cpu_slowdown();
}

void Node::free_memory(common::Bytes bytes) {
  assert(bytes >= 0);
  memory_used_ = std::max<common::Bytes>(0, memory_used_ - bytes);
  refresh_cpu_slowdown();
}

double Node::memory_pressure() const {
  return static_cast<double>(memory_used_) / static_cast<double>(kMemory);
}

void Node::set_fault_slowdown(double factor) {
  assert(factor >= 1.0);
  fault_slowdown_ = factor;
  refresh_cpu_slowdown();
}

void Node::refresh_cpu_slowdown() {
  cpu_->set_slowdown(paging_slowdown(memory_pressure()) * fault_slowdown_);
}

double Node::cpu_utilization_probe() {
  const double u = cpu_->utilization_since(cpu_snap_.integral, cpu_snap_.at);
  cpu_snap_ = {cpu_->busy_integral(), sim_.now()};
  return u;
}

double Node::disk_utilization_probe() {
  const double u =
      disk_->utilization_since(disk_snap_.integral, disk_snap_.at);
  disk_snap_ = {disk_->busy_integral(), sim_.now()};
  return u;
}

double Node::nic_utilization_probe() {
  const double u = nic_.utilization_since(nic_snap_.integral, nic_snap_.at);
  nic_snap_ = {nic_.busy_integral(), sim_.now()};
  return u;
}

}  // namespace ah::cluster
