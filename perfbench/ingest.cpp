// Workload `ingest`: replay a packet trace through runtime::Supervisor into
// a lake with the pooled encoder, as a probe at a PoP replays a recorded
// capture. net, probe, runtime and the storage write path do all the work;
// nothing is read back inside the timed region.
#include <algorithm>
#include <limits>
#include <stdexcept>

#include "checks.hpp"
#include "core/thread_pool.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"
#include "probe/sharded_probe.hpp"
#include "runtime/supervisor.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/packets.hpp"
#include "synth/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ew = edgewatch;
namespace fs = std::filesystem;

namespace {

// Trace recipe: three consecutive days of the paper scenario at a tenth of
// the default population. Fixed dates keep the traffic mix (and so the
// per-frame cost) the same for every seed; the seed varies who talks to
// whom, when and how much.
constexpr double kScale = 0.1;
constexpr ew::core::CivilDate kFirstDay{2016, 5, 10};
constexpr int kDays = 3;
/// The trace is cut at this many frames (the three days render to ~10-20%
/// more), so every seed replays the same amount of traffic; conversations
/// still open at the cut end as the probe's final flush exports them.
constexpr std::size_t kTraceFrames = 250'000;
/// Server payload rendered per conversation: enough for a handful of data
/// segments without letting bulk transfers dominate the trace's memory.
constexpr std::size_t kMaxResponseBytes = 6 * 1400;
/// The client's operation: a batch of offer() calls. Every
/// kBatchesPerCheckpoint-th batch ends with the checkpoint() that makes the
/// frames offered so far durable, so the latency median follows the offer
/// path and the tail follows offer plus checkpoint.
constexpr std::size_t kOfferBatch = 4096;
constexpr std::size_t kBatchesPerCheckpoint = 8;

struct Input {
  std::vector<ew::net::Frame> trace;
  RecordDigest sharded_records;   ///< what the supervised sharded probe must store
  TrafficByTuple serial_traffic;  ///< what the serial probe saw per five-tuple
  std::uint64_t serial_record_count = 0;
  std::uint64_t conversations = 0;
  std::uint64_t dns_named = 0;
};

ew::synth::ConversationSpec conversation_for(const ew::flow::FlowRecord& r, std::size_t i) {
  ew::synth::ConversationSpec spec;
  spec.client = r.client_ip;
  spec.server = r.server_ip;
  spec.client_port = r.client_port != 0 ? r.client_port
                                        : static_cast<std::uint16_t>(40000 + i % 20000);
  spec.server_port = r.server_port != 0 ? r.server_port : 443;
  spec.web = r.web;
  spec.p2p = ew::dpi::is_p2p(r.l7);
  switch (r.name_source) {
    case ew::flow::NameSource::kHttpHost:
    case ew::flow::NameSource::kTlsSni:
    case ew::flow::NameSource::kFbZero:
      spec.server_name = r.server_name;
      break;
    default:
      break;  // no name in the first flight: DN-Hunter has to supply it
  }
  spec.response_bytes = std::min<std::uint64_t>(r.down.bytes, kMaxResponseBytes);
  spec.start = r.first_packet;
  spec.rtt_us = r.rtt.min_us > 0 ? std::clamp<std::int64_t>(r.rtt.min_us, 500, 300'000) : 20'000;
  return spec;
}

std::unique_ptr<Input> make_input(std::uint64_t seed, std::size_t shards) {
  auto input = std::make_unique<Input>();
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(seed, kScale)};
  const ew::core::IPv4Address resolver{10, 255, 0, 1};
  const std::int64_t first = ew::core::days_from_civil(kFirstDay);
  for (std::int64_t z = first; z < first + kDays; ++z) {
    const auto records = gen.day_records(ew::core::civil_from_days(z));
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      const auto spec = conversation_for(r, i);
      if (spec.server_name.empty() && !r.server_name.empty() && !spec.p2p) {
        const ew::core::IPv4Address addrs[] = {r.server_ip};
        input->trace.push_back(ew::synth::render_dns_response(
            r.client_ip, resolver, r.server_name, addrs, r.first_packet + (-50'000)));
        ++input->dns_named;
      }
      for (auto& f : ew::synth::render_conversation(spec)) input->trace.push_back(std::move(f));
      ++input->conversations;
    }
  }
  std::stable_sort(input->trace.begin(), input->trace.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
  if (input->trace.size() < kTraceFrames) {
    throw std::runtime_error("the trace recipe rendered too few frames");
  }
  input->trace.resize(kTraceFrames);
  // References: what a serial probe and the sharded probe the supervisor
  // wraps export for the same trace.
  ew::probe::Probe probe{ew::probe::ProbeConfig{}, [&](ew::flow::FlowRecord&& r) {
                           input->serial_traffic.add(r);
                           ++input->serial_record_count;
                         }};
  probe.process(std::span<const ew::net::Frame>{input->trace});
  probe.finish();
  if (probe.counters().decode_failures != 0) {
    throw std::runtime_error("reference probe failed to decode frames of the trace");
  }
  ew::probe::ShardedProbeConfig sharded_config;
  sharded_config.shards = shards;
  ew::probe::ShardedProbe sharded{sharded_config};
  for (const auto& f : input->trace) sharded.ingest(f);
  for (const auto& r : sharded.finish()) input->sharded_records.add(r);
  return input;
}

/// A full ring holds the feeder until a worker frees a slot: a recorded
/// trace is replayed, not sampled. No escalation can start sampling, and
/// the retry budget is far beyond any wait a live worker needs.
ew::runtime::OverloadPolicy hold_policy() {
  ew::runtime::OverloadPolicy p;
  p.max_shift = 0;
  p.ingest_retries = std::numeric_limits<std::uint32_t>::max() - 1;
  return p;
}

}  // namespace

RunResult run_ingest(const Options& options) {
  RunResult result;
  std::vector<double> setup_s;
  // Thread budget: the feeder (this thread), the shard workers and the
  // encode pool together use options.threads.
  if (options.threads < 3) {
    throw std::runtime_error("ingest needs 3 CPUs (the feeder, a shard worker and an encoder), "
                             "this process may use " + std::to_string(options.threads));
  }
  const std::size_t shards = options.threads >= 4 ? 2 : 1;
  const std::size_t encoders = options.threads - 1 - shards;
  const auto input =
      repeated_setup<Input>([&] { return make_input(options.seed, shards); }, setup_s);
  const std::size_t frames = input->trace.size();
  ew::core::ThreadPool encode_pool(encoders);

  WorkDir work(options.work_root);
  Tracer tracer(false);
  // Memory is measured from the first pass's replay copy on: the copies are
  // the harness's input, and later passes reuse the memory of the frames
  // the previous pass consumed.
  bool peak_reset = false;
  double rss_base = 0;

  std::vector<double> rate_untraced, rate_traced, batch_ms, lake_bytes_per_flow;
  double traced_wall = 0;
  std::uint64_t traced_frames = 0;
  ObsValues traced_obs;
  std::uint64_t pass = 0;
  unsigned threads_seen = 0;
  const auto phase_start = Clock::now();
  while (keep_measuring(options, phase_start, pass, batch_ms.size())) {
    const bool traced = options.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    const ObsValues obs_before = scrape_obs();
    const auto pass_start = Clock::now();

    Tracer::Scope prepare(tracer, "harness.prepare", pass);
    std::vector<ew::net::Frame> replay = input->trace;  // consumed by offer()
    if (pass == 0) {
      peak_reset = reset_peak_rss();
      rss_base = rss_mb();
    }
    const fs::path dir = work.path() / ("pass-" + std::to_string(pass));
    auto lake = std::make_unique<ew::storage::DataLake>(dir / "lake");
    lake->set_encode_pool(&encode_pool);
    ew::runtime::SupervisorConfig cfg;
    cfg.probe.shards = shards;
    cfg.overload = hold_policy();
    cfg.checkpoint_path = dir / "pipeline.ewpc";
    cfg.quarantine_path = dir / "quarantine.ewq";
    auto sup = std::make_unique<ew::runtime::Supervisor>(*lake, cfg);
    bool ok = static_cast<bool>(sup->start());
    threads_seen = std::max(threads_seen, thread_count());
    prepare.close();

    // Timed: first offer to the return of finish().
    const auto t0 = Clock::now();
    {
      Tracer::Scope whole(tracer, "ingest.replay", pass);
      for (std::size_t begin = 0, batch = 1; begin < frames; begin += kOfferBatch, ++batch) {
        const std::size_t end = std::min(frames, begin + kOfferBatch);
        const auto i0 = Clock::now();
        {
          Tracer::Scope offer(tracer, "runtime.offer", pass);
          for (std::size_t i = begin; i < end; ++i) sup->offer(std::move(replay[i]));
        }
        if (batch % kBatchesPerCheckpoint == 0 && end < frames) {
          Tracer::Scope checkpoint(tracer, "runtime.checkpoint", pass);
          ok = static_cast<bool>(sup->checkpoint()) && ok;
        }
        batch_ms.push_back(seconds_between(i0, Clock::now()) * 1e3);
      }
      Tracer::Scope finish(tracer, "runtime.finish", pass);
      ok = static_cast<bool>(sup->finish()) && ok;
    }
    const double replay_s = seconds_between(t0, Clock::now());

    Tracer::Scope check(tracer, "harness.check", pass);
    replay.clear();
    replay.shrink_to_fit();
    const ObsValues obs_after = scrape_obs();
    const ObsValues delta = obs_delta(obs_before, obs_after);
    IngestOutcome outcome;
    outcome.health = sup->health();
    outcome.frames_in_trace = frames;
    outcome.decode_failures =
        static_cast<std::uint64_t>(delta.get("probe_decode_failures_total"));
    outcome.fsck_clean = lake->fsck().clean();
    outcome.stored = read_lake(*lake);
    std::uint64_t lake_bytes = 0;
    for (const auto day : lake->days()) lake_bytes += lake->file_bytes(day);
    std::string problem = ok ? check_ingest(outcome, input->sharded_records, input->serial_traffic)
                             : std::string("a supervisor call returned an error");
    result.attempted += frames;
    result.failed += outcome.health.shed_total() + outcome.health.frames_quarantined;
    if (!problem.empty()) {
      result.failed = std::max<std::uint64_t>(result.failed, frames);
      result.fail("ingest pass " + std::to_string(pass) + ": " + problem);
    }
    check.close();

    Tracer::Scope cleanup(tracer, "harness.cleanup", pass);
    sup.reset();
    lake.reset();
    fs::remove_all(dir);
    cleanup.close();

    const double rate = static_cast<double>(frames) / replay_s;
    if (traced) {
      traced_wall += seconds_between(pass_start, Clock::now());
      traced_frames += frames;
      rate_traced.push_back(rate);
      obs_add(traced_obs, delta);
    } else {
      rate_untraced.push_back(rate);
    }
    lake_bytes_per_flow.push_back(static_cast<double>(lake_bytes) /
                                  static_cast<double>(outcome.stored.records.count));
    ++pass;
  }
  const double rss_growth = peak_rss_mb() - rss_base;

  result.extra.push_back({"ingest.frames_in_trace", static_cast<double>(frames), "frames"});
  result.extra.push_back({"ingest.conversations", static_cast<double>(input->conversations), "count"});
  result.extra.push_back({"ingest.dns_named_flows", static_cast<double>(input->dns_named), "count"});
  result.extra.push_back({"ingest.serial_records", static_cast<double>(input->serial_record_count),
                          "count"});
  result.extra.push_back({"ingest.sharded_records",
                          static_cast<double>(input->sharded_records.count), "count"});
  result.extra.push_back({"ingest.passes", static_cast<double>(pass), "count"});
  result.extra.push_back({"threads.shards", static_cast<double>(shards), "count"});
  result.extra.push_back({"threads.encode_pool", static_cast<double>(encoders), "count"});
  check_thread_budget(result, options, threads_seen);
  result.extra.push_back({"ingest_frames_per_s", median(rate_untraced), "frames/s"});
  result.extra.push_back({"error_rate", static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted), "ratio"});
  if (!peak_reset) result.extra.push_back({"rss.peak_reset_failed", 1, "flag"});

  if (!options.trace) {
    set_end_to_end(result, setup_s, rss_growth, median(lake_bytes_per_flow),
                   median(rate_untraced), batch_ms);
    return result;
  }

  // Standalone single-layer baselines over the same trace.
  const auto& trace = input->trace;
  const double decode_ns = time_per_item_ns(frames, [&] {
    std::size_t decoded = 0;
    for (const auto& f : trace) decoded += ew::net::decode_frame(f).has_value() ? 1 : 0;
    if (decoded != frames) result.fail("standalone decode_frame rejected frames of the trace");
  });
  const double serial_ns = time_per_item_ns(frames, [&] {
    std::uint64_t exported = 0;
    ew::probe::Probe probe{ew::probe::ProbeConfig{},
                           [&](ew::flow::FlowRecord&&) { ++exported; }};
    probe.process(std::span<const ew::net::Frame>{trace});
    probe.finish();
    if (exported != input->serial_record_count) {
      result.fail("standalone serial probe export differs");
    }
  });
  const double offer_ns = tracer.total_seconds("runtime.offer") * 1e9 /
                          static_cast<double>(traced_frames);
  const double records = traced_obs.get("lake_append_records_total");
  const double traced_passes = static_cast<double>(rate_traced.size());
  std::vector<double> fsync_ms;
  for (const auto& s : traced_obs.spans) {
    if (s.name == "lake_append_fsync") fsync_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
  }
  result.per_layer = {
      {"net.decode_ns_per_frame", decode_ns, "ns"},
      {"probe.serial_ns_per_frame", serial_ns, "ns"},
      {"runtime.offer_ns_per_frame", offer_ns, "ns"},
      {"runtime.offer_vs_serial", offer_ns / serial_ns, "ratio"},
      {"runtime.checkpoint_ms", median(tracer.durations("runtime.checkpoint")) * 1e3, "ms"},
      {"runtime.finish_ms", median(tracer.durations("runtime.finish")) * 1e3, "ms"},
      {"storage.append_ns_per_record", traced_obs.get("lake_append_ns.sum") / records, "ns"},
      {"storage.encode_ns_per_record", traced_obs.get("lake_encode_block_ns.sum") / records, "ns"},
      {"storage.fsyncs", traced_obs.get("lake_append_fsync_ns.count") / traced_passes, "count"},
      {"storage.fsync_ms", median(fsync_ms), "ms"},
      {"storage.codec_out_per_in",
       traced_obs.sum("lake_codec_", "_bytes_out_total") /
           traced_obs.sum("lake_codec_", "_bytes_in_total"),
       "ratio"},
      {"trace.overhead_pct", (median(rate_untraced) / median(rate_traced) - 1.0) * 100.0, "%"},
  };
  add_attribution(result, tracer, traced_wall);
  write_trace_files(options, tracer);
  return result;
}

}  // namespace perfbench
