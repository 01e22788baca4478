// Entry point of the facade benchmark. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Generates the workload's inputs from the seed (untimed), then either times
// the end-to-end metrics through the StreamApprox facade (--trace 0) or runs
// the traced per-layer attribution (--trace 1), which is sized by a fixed
// number of passes rather than by --seconds. Human-readable detail goes
// first; the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_file;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--trace-file") {
      trace_file = value;
    } else {
      usage();
      return 2;
    }
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (workload == nullptr || trace < 0 || !(seconds > 0.0) || argc % 2 == 0) {
    usage();
    return 2;
  }
  if (trace_file.empty()) {
    trace_file = "trace-" + workload->name + ".tsv";
  }

  try {
    const auto records = perfbench::generate_records(*workload, seed);
    const perfbench::Reference reference(records, *workload);
    std::printf(
        "workload %s seed %llu: %zu records, %zu strata, %.1f event s, "
        "%zu slides, %zu windows/pass, %zu workers, fraction %.2f%s\n",
        workload->name.c_str(), static_cast<unsigned long long>(seed),
        records.size(), workload->strata, workload->event_seconds,
        reference.slides(), reference.expected_windows(), workload->workers,
        workload->fraction,
        workload->paced ? ", open loop (paced generator)" : ", sealed topic");
    const perfbench::Outcome outcome =
        trace == 0 ? perfbench::run_end_to_end(*workload, records, reference,
                                               seconds)
                   : perfbench::run_traced(*workload, records, reference,
                                           trace_file);

    bool finite = true;
    std::string metrics;
    for (const auto& metric : outcome.metrics) {
      finite = finite && std::isfinite(metric.value);
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metric.value) ? metric.value : 0.0);
      std::printf("  %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
      if (!metrics.empty()) metrics += ", ";
      metrics += '"';
      metrics += metric.name;
      metrics += "\": {\"value\": ";
      metrics += value;
      metrics += ", \"unit\": \"";
      metrics += metric.unit;
      metrics += "\"}";
    }
    const bool correct = outcome.failed == 0 && outcome.valid && finite;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(outcome.attempted),
        static_cast<unsigned long long>(outcome.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
