#include "harness.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// A numeric field of /proc/self/status (sizes in kB); -1 when absent.
long status_kb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0 && line.size() > field.size() &&
        line[field.size()] == ':') {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

// ------------------------------------------------------------------ WorkDir

WorkDir::WorkDir(const fs::path& root) : root_(root) {
  static std::atomic<unsigned> counter{0};
  path_ = root / ("pb-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
  fs::remove_all(path_);
  fs::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
  // Drop the shared parent once the last working directory is gone.
  if (fs::is_empty(root_, ec) && !ec) fs::remove(root_, ec);
}

// ------------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, std::uint64_t request)
    : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  const std::int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back({name, now_ns(), 0, parent, request});
  tracer.open_.push_back(index_);
}

void Tracer::Scope::close() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
  index_ = -1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out[std::string(s.name)] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

double Tracer::total_seconds(std::string_view name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

bool Tracer::write_json(const fs::path& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- statistics

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool percentile_supported(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

// ------------------------------------------------------------------- memory

double rss_mb() { return static_cast<double>(status_kb("VmRSS")) / 1024.0; }

double peak_rss_mb() { return static_cast<double>(status_kb("VmHWM")) / 1024.0; }

unsigned thread_count() { return static_cast<unsigned>(status_kb("Threads")); }

bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// ---------------------------------------------------------------------- obs

double ObsValues::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double ObsValues::sum(std::string_view prefix, std::string_view suffix) const {
  double total = 0;
  for (const auto& [name, value] : values) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

ObsValues scrape_obs() {
  ObsValues out;
  const auto snap = edgewatch::obs::Registry::global().scrape();
  const auto key = [](const std::string& name, const std::string& labels) {
    return labels.empty() ? name : name + "{" + labels + "}";
  };
  for (const auto& c : snap.counters) out.values[key(c.name, c.labels)] = static_cast<double>(c.value);
  for (const auto& h : snap.histograms) {
    out.values[key(h.name, h.labels) + ".count"] = static_cast<double>(h.count);
    out.values[key(h.name, h.labels) + ".sum"] = static_cast<double>(h.sum);
  }
  out.spans = snap.spans;
  return out;
}

ObsValues obs_delta(const ObsValues& before, const ObsValues& after) {
  ObsValues out;
  for (const auto& [name, value] : after.values) out.values[name] = value - before.get(name);
  // Ring events recorded after the earlier scrape.
  std::uint64_t newest = 0;
  for (const auto& s : before.spans) newest = std::max(newest, s.start_ns);
  for (const auto& s : after.spans) {
    if (s.start_ns > newest) out.spans.push_back(s);
  }
  return out;
}

void obs_add(ObsValues& total, const ObsValues& delta) {
  for (const auto& [name, value] : delta.values) total.values[name] += value;
  total.spans.insert(total.spans.end(), delta.spans.begin(), delta.spans.end());
}

bool write_obs_snapshot(const fs::path& path) {
  return edgewatch::obs::write_snapshot(edgewatch::obs::Registry::global().scrape(), path,
                                        edgewatch::obs::ExportFormat::kJson,
                                        /*include_spans=*/true);
}

// ------------------------------------------------------------------ results

void check_thread_budget(RunResult& result, const Options& options, unsigned observed) {
  result.extra.push_back({"threads.observed", static_cast<double>(observed), "count"});
  if (observed > options.threads) {
    result.fail("threads: " + std::to_string(observed) + " observed, the budget is " +
                std::to_string(options.threads));
  }
}

bool keep_measuring(const Options& options, Clock::time_point phase_start, std::uint64_t cycles,
                    std::size_t ops) {
  const double elapsed = seconds_between(phase_start, Clock::now());
  if (elapsed < options.seconds || cycles < 2) return true;
  return !percentile_supported(ops, 0.99) && elapsed < 4 * options.seconds;
}

void set_end_to_end(RunResult& result, const std::vector<double>& setup_s, double rss_growth_mb,
                    double lake_bytes_per_flow, double throughput_per_s,
                    const std::vector<double>& op_ms) {
  result.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"rss_growth_mb", rss_growth_mb, "MB"},
      {"lake_bytes_per_flow", lake_bytes_per_flow, "B"},
      {"throughput_per_s", throughput_per_s, "1/s"},
      {"op_p50_ms", percentile(op_ms, 0.5), "ms"},
      {"op_p99_ms", percentile(op_ms, 0.99), "ms"},
  };
  result.extra.push_back({"op.samples", static_cast<double>(op_ms.size()), "count"});
  if (!percentile_supported(op_ms.size(), 0.99)) {
    std::fprintf(stderr, "perfbench: only %zu operations; op_p99_ms has fewer than ten "
                 "samples beyond it\n", op_ms.size());
  }
}

// ------------------------------------------------------------ trace output

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"net.decode_ns_per_frame", "ns"},
      {"probe.serial_ns_per_frame", "ns"},
      {"runtime.offer_ns_per_frame", "ns"},
      {"runtime.offer_vs_serial", "ratio"},
      {"runtime.checkpoint_ms", "ms"},
      {"runtime.finish_ms", "ms"},
      {"storage.append_ns_per_record", "ns"},
      {"storage.encode_ns_per_record", "ns"},
      {"storage.fsyncs", "count"},
      {"storage.fsync_ms", "ms"},
      {"storage.codec_out_per_in", "ratio"},
      {"storage.scan_ns_per_record", "ns"},
      {"analytics.aggregate_ns_per_record", "ns"},
      {"exec.rows_per_batch", "rows"},
      {"exec.dict_passthrough_share", "ratio"},
      {"query.build_ms_per_day", "ms"},
      {"query.bytes_by_service_ms", "ms"},
      {"query.volume_trend_ms", "ms"},
      {"query.protocol_shares_ms", "ms"},
      {"query.top_services_ms", "ms"},
      {"query.weekly_rtt_ms", "ms"},
      {"query.days_merged", "count"},
      {"storage.blocks_pruned_share", "ratio"},
      {"storage.segments_skipped", "count"},
      {"storage.records_per_answer", "ratio"},
      {"query.days_scanned_raw", "count"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& spec : per_layer_specs()) {
    Metric m{spec.name, 0.0, spec.unit};
    for (const auto& got : measured) {
      if (got.name == spec.name) m.value = got.value;
    }
    out.push_back(m);
  }
  return out;
}

void write_trace_files(const Options& options, const Tracer& tracer) {
  std::error_code ec;
  fs::create_directories(options.out_dir, ec);
  const std::string stem = options.workload + "-" + std::to_string(options.seed);
  if (!tracer.write_json(options.out_dir / (stem + ".spans.json")) ||
      !write_obs_snapshot(options.out_dir / (stem + ".obs.json"))) {
    std::fprintf(stderr, "perfbench: could not write the trace files under %s\n",
                 options.out_dir.c_str());
  }
}

// -------------------------------------------------------------- attribution

void add_attribution(RunResult& result, const Tracer& tracer, double traced_wall_s) {
  double attributed = 0;
  for (const auto& [name, self] : tracer.self_seconds()) {
    attributed += self;
    result.extra.push_back({"trace.self_s." + name, self, "s"});
  }
  const double unattributed = traced_wall_s > 0 ? 1.0 - attributed / traced_wall_s : 0.0;
  result.extra.push_back({"trace.attributed_s", attributed, "s"});
  result.extra.push_back({"trace.wall_s", traced_wall_s, "s"});
  result.per_layer.push_back({"trace.unattributed_share", unattributed, "ratio"});
}

}  // namespace perfbench
