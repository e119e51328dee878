// Benchmark entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics (tracing off); --trace 1 runs
// the traced pass and reports the per-layer metrics. Human-readable lines go
// to stdout first; the last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 on bad arguments.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace prophet::perfbench {
namespace {

int usage(const char* error) {
  std::fprintf(stderr, "perfbench: %s\n", error);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const auto& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& name : workload_names()) known = known || name == workload;
  if (!known) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed) return usage("--seed is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  const RunReport report = trace == 1 ? run_traced(workload, seed)
                                      : run_timed(workload, seed, seconds);

  bool correct = report.failed == 0 && report.problems.empty() &&
                 report.attempted > 0;
  for (const auto& p : report.problems) std::printf("FAILED: %s\n", p.c_str());
  std::printf("%s seed %" PRIu64 " (%s): %zu/%zu operations failed (%.1f%%)\n",
              workload.c_str(), seed, trace == 1 ? "traced" : "timed",
              report.failed, report.attempted,
              report.attempted == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted));
  std::string metrics;
  for (const auto& m : report.metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {
      correct = false;
      std::printf("FAILED: %s is not finite\n", m.name.c_str());
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(m.name) + "\": {\"value\": " + value +
               ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", report.attempted, report.failed,
      metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace prophet::perfbench

int main(int argc, char** argv) { return prophet::perfbench::run(argc, argv); }
