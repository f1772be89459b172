// The benchmark's workloads. Each drives the program through its public
// API from one process with one closed-loop client, measures for
// Options::seconds, checks every answer outside the timed region and
// returns its metrics.
#pragma once

#include <functional>
#include <memory>

#include "harness.hpp"

namespace perfbench {

/// Packet trace → runtime::Supervisor → pooled-encode DataLake → sealed days.
RunResult run_ingest(const Options& options);
/// Multi-year lake → cold query::RollupStore::build → figure query mix.
RunResult run_rollup_query(const Options& options);
/// The same lake without rollups → raw-fallback queries and parallel
/// day aggregates.
RunResult run_adhoc_scan(const Options& options);

/// Repetitions behind setup_s.
inline constexpr int kSetupRepeats = 3;
/// When main() started; the first setup sample counts from here.
Clock::time_point process_start();

/// Run `setup` kSetupRepeats times and keep the last result; each run's
/// wall time is a setup_s sample, the first one counted from process start.
template <typename T>
std::unique_ptr<T> repeated_setup(const std::function<std::unique_ptr<T>()>& setup,
                                  std::vector<double>& seconds) {
  std::unique_ptr<T> value;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = i == 0 ? process_start() : Clock::now();
    value.reset();
    value = setup();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return value;
}

}  // namespace perfbench
