// Backend-selection policies for a tier.
//
// The paper assumes "workload evenly distributed among all the servers in
// the same tier" for parameter duplication, and strict work-line isolation
// for parameter partitioning.  core::SystemModel gives every work line its
// own routers, each balancing over that line's nodes only: the line's
// frontend uses kRoundRobin (the testbed's DNS/IPVS-style rotation), its
// proxy -> app and app -> db routers use kLeastLoaded (mod_jk's balancer
// and DB connection pools).
#pragma once

#include <cstddef>

#include "common/analysis.hpp"
#include "common/function_ref.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

enum class BalancePolicy { kRoundRobin, kLeastLoaded };

class LoadBalancer {
 public:
  /// `load(i)` must return a comparable load figure for backend i (queue
  /// length, connections, ...); only kLeastLoaded consults it.  Consulted
  /// once per routed request and never stored, so it is a non-owning
  /// FunctionRef — callers pass a lambda at the pick() call site with no
  /// allocation and no ownership transfer.
  using LoadFn = common::FunctionRef<double(std::size_t)>;

  /// `avail(i)` must return whether backend i may receive traffic (health
  /// mask from cluster::HealthChecker).  An empty AvailFn means "all
  /// available" and costs nothing — the unmasked fast paths are taken.
  using AvailFn = common::FunctionRef<bool(std::size_t)>;

  explicit LoadBalancer(BalancePolicy policy) : policy_(policy) {}

  /// Picks a backend in [0, n).  Precondition: n > 0.  When `avail` is
  /// given, only backends it admits are chosen; round-robin spreads evenly
  /// over the *healthy subset* (the cursor advances one healthy position
  /// per pick, so skipped backends cannot skew the rotation).  If no
  /// backend is available the mask is ignored — callers are expected to
  /// fail fast before picking in that case.
  [[nodiscard]] std::size_t pick(std::size_t n, LoadFn load = {},
                                 AvailFn avail = {});

  [[nodiscard]] BalancePolicy policy() const { return policy_; }

  /// Resets round-robin position (used after tier membership changes so a
  /// stale cursor cannot skew the spread).
  void reset() { next_ = 0; }

 private:
  BalancePolicy policy_;
  std::size_t next_ = 0;
};

}  // namespace ah::cluster
