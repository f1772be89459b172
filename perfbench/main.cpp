// perfbench: the end-to-end benchmark of the probe → lake → rollup → query
// chain. One command runs one workload with one seed, untraced (end-to-end
// metrics) or traced (per-layer metrics):
//
//   perfbench --workload ingest|rollup_query|adhoc_scan --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]
//             [--rev REV]
//
// The process uses at most as many threads as the CPUs it may run on
// (its affinity mask), pools included.
// It prints a host record, every metric by name with its unit, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// It exits 1 when an output check fails and 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include <sched.h>

#include "workloads.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// CPUs this process may run on.
unsigned allowed_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|rollup_query|adhoc_scan --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR] [--rev REV]\n");
}

bool parse(int argc, char** argv, Options& o) {
  o.threads = allowed_cpus();
  o.work_root = ".bench_work";
  o.out_dir = ".bench_out";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace") o.trace = std::stoi(value) != 0;
      else if (key == "--work-dir") o.work_root = value;
      else if (key == "--out-dir") o.out_dir = value;
      else if (key == "--rev") o.rev = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-10s %-40s %20s %s\n", kind, m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "ingest") run = run_ingest;
  else if (options.workload == "rollup_query") run = run_rollup_query;
  else if (options.workload == "adhoc_scan") run = run_adhoc_scan;
  if (run == nullptr) {
    usage();
    return 2;
  }

  std::printf("host {\"cpu\": \"%s\", \"nproc\": %u, \"build\": \"%s\", "
              "\"ew_obs\": \"%s\", \"rev\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d}\n",
              json_escape(cpu_model()).c_str(), options.threads, EW_BUILD_TYPE, EW_OBS_STATE,
              json_escape(options.rev).c_str(),
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0);

  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  constexpr std::size_t kShownProblems = 10;
  for (std::size_t i = 0; i < result.problems.size() && i < kShownProblems; ++i) {
    std::fprintf(stderr, "check failed: %s\n", result.problems[i].c_str());
  }
  if (result.problems.size() > kShownProblems) {
    std::fprintf(stderr, "check failed: ... %zu more\n", result.problems.size() - kShownProblems);
  }

  if (options.trace) result.per_layer = complete_per_layer(result.per_layer);
  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  print_metrics("info", result.extra);
  print_metrics(options.trace ? "per_layer" : "end_to_end", metrics);

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
