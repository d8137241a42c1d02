// cluster_inspect: run a workload against a configurable cluster and dump
// per-node utilization, server statistics, latency and error figures.
//
// Useful to understand where the bottleneck sits before letting Active
// Harmony tune — the same view an administrator would get from top/iostat
// on the paper's testbed.
//
// Usage: cluster_inspect [browsers] [workload: browsing|shopping|ordering]
//                        [proxyN appN dbN] [iterations]
#include <cstdio>
#include <cstring>
#include <string>

#include "core/experiment.hpp"
#include "core/system_model.hpp"
#include "tpcw/constraints.hpp"
#include "tpcw/mix.hpp"

namespace {

ah::tpcw::WorkloadKind parse_workload(const char* name) {
  if (std::strcmp(name, "browsing") == 0) {
    return ah::tpcw::WorkloadKind::kBrowsing;
  }
  if (std::strcmp(name, "ordering") == 0) {
    return ah::tpcw::WorkloadKind::kOrdering;
  }
  return ah::tpcw::WorkloadKind::kShopping;
}

}  // namespace

int main(int argc, char** argv) {
  const int browsers = argc > 1 ? std::stoi(argv[1]) : 700;
  const auto workload =
      parse_workload(argc > 2 ? argv[2] : "shopping");
  const int proxy_nodes = argc > 5 ? std::stoi(argv[3]) : 1;
  const int app_nodes = argc > 5 ? std::stoi(argv[4]) : 1;
  const int db_nodes = argc > 5 ? std::stoi(argv[5]) : 1;
  const std::size_t iterations = argc > 6 ? std::stoul(argv[6]) : 5;

  ah::sim::Simulator sim;
  ah::core::SystemModel::Config system_config;
  system_config.lines = {
      ah::core::SystemModel::LineSpec{proxy_nodes, app_nodes, db_nodes}};
  ah::core::SystemModel system(sim, system_config);

  ah::core::Experiment::Config experiment_config;
  experiment_config.browsers = browsers;
  experiment_config.workload = workload;
  ah::core::Experiment experiment(system, experiment_config);

  ah::core::IterationResult last;
  for (std::size_t i = 0; i < iterations; ++i) {
    last = experiment.run_iteration();
    std::printf("iter %2zu: WIPS %7.1f  (browse %6.1f / order %6.1f)  "
                "err %5.2f%%  latency %7.1f ms\n",
                i, last.wips, last.wips_browse, last.wips_order,
                last.error_ratio * 100.0, last.mean_latency_ms);
  }

  std::printf("\n-- node utilization (EWMA) --\n");
  for (const auto& reading : system.readings()) {
    std::printf(
        "node%-2u tier=%d  cpu %5.1f%%  disk %5.1f%%  nic %5.1f%%  mem %5.1f%%"
        "  jobs %4.0f\n",
        reading.node_id, reading.tier, reading.utilization[0] * 100.0,
        reading.utilization[1] * 100.0, reading.utilization[2] * 100.0,
        reading.utilization[3] * 100.0, reading.jobs);
  }

  std::printf("\n-- TPC-W WIRT compliance (90th percentile) --\n");
  for (const auto& result : experiment.wirt().check_all()) {
    if (result.samples == 0) continue;
    std::printf("  %-22s p90 %6.2fs  limit %5.1fs  %s (%zu samples)\n",
                std::string(ah::tpcw::interaction_name(result.interaction))
                    .c_str(),
                result.p90_seconds, result.limit_seconds,
                result.compliant ? "OK" : "VIOLATION", result.samples);
  }

  std::printf("\n-- server stats --\n");
  auto& cluster = system.cluster();
  for (const auto id : system.all_nodes()) {
    switch (cluster.tier_of(id)) {
      case ah::cluster::TierKind::kProxy: {
        const auto& p = system.proxy_on(id);
        const auto& s = p.stats();
        std::printf(
            "node%-2u proxy: served %llu memhit %llu diskhit %llu miss %llu "
            "pass %llu | memcache %.1f%% full, hit ratio %.2f\n",
            id, static_cast<unsigned long long>(s.served),
            static_cast<unsigned long long>(s.mem_hits),
            static_cast<unsigned long long>(s.disk_hits),
            static_cast<unsigned long long>(s.misses_forwarded),
            static_cast<unsigned long long>(s.passthrough),
            100.0 * static_cast<double>(p.memory_cache().used()) /
                static_cast<double>(std::max<ah::common::Bytes>(
                    1, p.memory_cache().capacity())),
            p.memory_cache().hit_ratio());
        break;
      }
      case ah::cluster::TierKind::kApp: {
        const auto& s = system.app_on(id).stats();
        std::printf(
            "node%-2u app: served %llu rejHTTP %llu rejAJP %llu queries %llu "
            "spawned %llu\n",
            id, static_cast<unsigned long long>(s.served),
            static_cast<unsigned long long>(s.rejected_http),
            static_cast<unsigned long long>(s.rejected_ajp),
            static_cast<unsigned long long>(s.db_queries),
            static_cast<unsigned long long>(s.threads_spawned));
        break;
      }
      case ah::cluster::TierKind::kDb: {
        const auto& s = system.db_on(id).stats();
        std::printf(
            "node%-2u db: queries %llu (sel %llu join %llu upd %llu ins %llu) "
            "tblmiss %llu binlog %llu batches %llu\n",
            id, static_cast<unsigned long long>(s.queries),
            static_cast<unsigned long long>(s.by_class[0]),
            static_cast<unsigned long long>(s.by_class[1]),
            static_cast<unsigned long long>(s.by_class[2]),
            static_cast<unsigned long long>(s.by_class[3]),
            static_cast<unsigned long long>(s.table_cache_misses),
            static_cast<unsigned long long>(s.binlog_flushes),
            static_cast<unsigned long long>(s.delayed_batches));
        break;
      }
    }
  }
  return 0;
}
