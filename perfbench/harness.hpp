// Shared machinery of the end-to-end benchmark: run options, the span
// tracer, latency statistics, memory and working-directory helpers, obs::
// registry deltas, and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_root;  ///< parent of the per-process working dirs
  std::filesystem::path out_dir;    ///< where a traced run writes its spans
  std::string rev = "unknown";
  /// Threads the process may use in total, pools included (nproc).
  unsigned threads = 1;
};

/// A working directory unique to this process (pid plus a counter), removed
/// when the object is destroyed. Every lake, rollup directory, checkpoint
/// and quarantine file lives under one of these.
class WorkDir {
 public:
  explicit WorkDir(const std::filesystem::path& root);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path root_;
  std::filesystem::path path_;
};

/// Spans recorded by benchmark code around public calls on the client
/// thread: name, start, end, parent span and request id. Kept in memory and
/// written out at exit. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string_view name;  ///< points at a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t request);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void close();

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Enable or suspend recording (a traced run alternates traced and
  /// untraced passes to measure the tracing overhead).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Self time per span name: duration minus the time its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Sum of the durations of every span with this name.
  [[nodiscard]] double total_seconds(std::string_view name) const;
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  bool write_json(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// True when at least ten samples lie beyond the q-th percentile.
[[nodiscard]] bool percentile_supported(std::size_t samples, double q);

/// Resident set size now, and the peak since the last reset, in MiB.
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();
/// Threads of this process right now.
[[nodiscard]] unsigned thread_count();

/// Return freed heap to the OS and restart peak tracking, so the peak that
/// follows measures the timed phase only. False when the kernel refuses
/// the reset (the peak then covers the whole process).
bool reset_peak_rss();

/// Counter, histogram-sum and histogram-count values of the obs:: registry,
/// keyed by metric name (labels are folded into the name).
struct ObsValues {
  std::map<std::string, double> values;
  std::vector<edgewatch::obs::Snapshot::SpanEvent> spans;

  [[nodiscard]] double get(const std::string& name) const;
  /// Sum of every value whose name starts with `prefix` and ends with `suffix`.
  [[nodiscard]] double sum(std::string_view prefix, std::string_view suffix) const;
};
[[nodiscard]] ObsValues scrape_obs();
/// after - before, per key.
[[nodiscard]] ObsValues obs_delta(const ObsValues& before, const ObsValues& after);
/// Accumulate `delta` into `total`.
void obs_add(ObsValues& total, const ObsValues& delta);
/// Dump the registry through obs::write_snapshot (JSON, spans included).
bool write_obs_snapshot(const std::filesystem::path& path);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;   ///< failed output checks, for stderr
  std::vector<Metric> end_to_end;      ///< untraced run
  std::vector<Metric> per_layer;       ///< traced run
  std::vector<Metric> extra;           ///< printed for people, not in the result line

  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// Print the most threads seen during the timed phase, and fail the run
/// when they exceed options.threads.
void check_thread_budget(RunResult& result, const Options& options, unsigned observed);

/// Whether a timed phase goes on: for options.seconds, for at least two
/// cycles (one traced, one untraced in a traced run) and, up to four times
/// as long, until op_p99_ms has ten samples beyond it.
[[nodiscard]] bool keep_measuring(const Options& options, Clock::time_point phase_start,
                                  std::uint64_t cycles, std::size_t ops);

/// The end-to-end metrics every workload reports, from its samples: the
/// setup_s median, the timed phase's memory growth, the lake's bytes per
/// stored flow, the workload's bulk rate and its client operation latency
/// (op_p99_ms is flagged in the output when fewer than ten samples lie
/// beyond it).
void set_end_to_end(RunResult& result, const std::vector<double>& setup_s, double rss_growth_mb,
                    double lake_bytes_per_flow, double throughput_per_s,
                    const std::vector<double>& op_ms);

/// Run `fn` (one pass over `items` items) at least three times and for at
/// least a quarter second; the median pass time per item, in ns.
template <typename F>
double time_per_item_ns(std::size_t items, F&& fn) {
  std::vector<double> per_item;
  const auto start = Clock::now();
  while (per_item.size() < 3 || seconds_between(start, Clock::now()) < 0.25) {
    const auto t0 = Clock::now();
    fn();
    per_item.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(items));
  }
  return median(std::move(per_item));
}

/// Every per-layer metric a traced run reports, in output order. A layer
/// that a workload does not exercise reports 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();
/// `measured` in per_layer_specs() order, 0 for the metrics not measured.
[[nodiscard]] std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured);

/// Write a traced run's spans and the obs:: registry snapshot to
/// options.out_dir (<workload>-<seed>.spans.json / .obs.json).
void write_trace_files(const Options& options, const Tracer& tracer);

/// Attribution block of a traced run: every span's self time, their sum
/// and the remainder against the traced wall time, printed as lines.
void add_attribution(RunResult& result, const Tracer& tracer, double traced_wall_s);

}  // namespace perfbench
