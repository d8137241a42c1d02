// perfbench: one run of one benchmark workload.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// Prints the workload's notes, every metric with its unit and clock, and
// as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, perfbench::RunOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-6s [%s]  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), m.note.c_str());
  }
}

void print_json(const perfbench::RunReport& report,
                const std::vector<Metric>& metrics) {
  const bool correct = report.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(correct ? 0 : report.attempted));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!parse(argc, argv, options)) {
    usage("bad arguments");
    return 2;
  }
  perfbench::RunReport report;
  try {
    report = perfbench::run(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const std::vector<Metric>& metrics =
      options.trace ? report.per_layer : report.end_to_end;
  print_table(options.trace ? "per-layer metrics (traced run)"
                            : "end-to-end metrics (untraced run)",
              metrics);
  if (!report.printed_only.empty()) {
    print_table("also printed", report.printed_only);
  }
  std::fflush(stdout);
  print_json(report, metrics);
  return report.failures.empty() ? 0 : 1;
}
