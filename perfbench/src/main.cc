// perfbench driver: runs one workload once and prints one JSON result
// line (README.md). Usually started through perfbench/run.py, which
// builds it first and checks the metric names against BENCHMARK.json.
//
//   perfbench --workload serve_small_hot|train_hap
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Exit codes: 0 result printed, outputs correct; 1 result printed, an
// output check failed; 2 bad arguments; 3 no result (the measurement
// could not be trusted or the program could not be stood up).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_small_hot|train_hap --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--workdir") {
      options->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && options->seconds > 0.0 && !options->workdir.empty() &&
         (options->workload == "serve_small_hot" || options->workload == "train_hap");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  const Report report = options.workload == "train_hap"
                            ? perfbench::RunTrainWorkload(options)
                            : perfbench::RunServeWorkload(options);
  if (!report.valid) return 3;

  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 3;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct ? 0 : 1;
}
