// Workloads `rollup_query` and `adhoc_scan`: an analyst's questions over a
// multi-year, day-partitioned lake. Both share one lake recipe and its
// setup-time references; `rollup_query` answers from per-day rollups built
// cold inside the timed phase, `adhoc_scan` asks what the rollups cannot
// answer and so reads the raw lake.
#include <algorithm>
#include <set>
#include <stdexcept>

#include "analytics/figures.hpp"
#include "analytics/parallel.hpp"
#include "checks.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ew = edgewatch;
namespace fs = std::filesystem;
using ew::core::CivilDate;
using ew::core::MonthIndex;
using ew::services::ServiceId;

namespace {

// Lake recipe: three days per month over three and a half years of the
// paper scenario at a tenth of the default population. Query cost grows
// with the days and months a question spans and scan cost with records,
// so the population is the same for every seed (its size would otherwise
// swing the lake by +-15%); the seed picks which days of each month are
// stored and which questions are asked.
constexpr double kScale = 0.1;
constexpr std::uint64_t kPopulationSeed = 2018;
constexpr MonthIndex kFirstMonth{2014, 1};
constexpr MonthIndex kLastMonth{2017, 6};
constexpr std::size_t kDaysPerMonth = 3;
/// Services whose weekly RTT the query mix asks for, in rotation.
constexpr ServiceId kRttServices[] = {ServiceId::kFacebook, ServiceId::kYouTube,
                                      ServiceId::kGoogle, ServiceId::kNetflix};
constexpr std::size_t kTopK = 10;

struct LakeInput {
  std::unique_ptr<WorkDir> work;
  ew::synth::Scenario scenario;
  std::unique_ptr<ew::storage::DataLake> lake;
  std::vector<CivilDate> days;
  std::vector<ew::analytics::DayAggregate> aggregates;  ///< from the in-memory records
  std::vector<GroupMap> raw_groups;                      ///< per day, raw-fallback attribution
  std::vector<std::size_t> blocks;                       ///< per day, blocks in the day file
  std::uint64_t records = 0;
  std::uint64_t lake_bytes = 0;

  // rollup_query references over the whole range.
  GroupMap bytes_by_service;
  std::vector<ew::analytics::VolumeTrendRow> volume_trend;
  std::vector<ew::analytics::ProtocolShareRow> protocol_shares;
  std::vector<MonthIndex> months;
  std::vector<std::map<std::uint32_t, double>> month_users;  ///< per month: service → users
  /// Per kRttServices entry: ISO-week Monday (day number) → exact median RTT.
  std::vector<std::map<std::uint32_t, double>> weekly_rtt;
};

std::int64_t iso_monday(CivilDate day) {
  const std::int64_t z = ew::core::days_from_civil(day);
  // 1970-01-01 was a Thursday: weekday index with Monday = 0.
  const std::int64_t weekday = ((z % 7) + 7 + 3) % 7;
  return z - weekday;
}

std::unique_ptr<LakeInput> make_lake(const Options& options, bool with_rollup_refs) {
  auto in = std::make_unique<LakeInput>();
  in->work = std::make_unique<WorkDir>(options.work_root);
  in->scenario = ew::synth::build_paper_scenario(kPopulationSeed, kScale);
  in->lake = std::make_unique<ew::storage::DataLake>(in->work->path() / "lake");
  const ew::synth::WorkloadGenerator gen{in->scenario};
  const auto& catalog = ew::services::ServiceCatalog::standard();
  ew::core::Xoshiro256 rng(ew::core::mix64(options.seed, 0x1a4e));
  for (MonthIndex m = kFirstMonth; m <= kLastMonth; m = m + 1) {
    std::set<std::uint8_t> days_of_month;
    while (days_of_month.size() < kDaysPerMonth) {
      days_of_month.insert(static_cast<std::uint8_t>(1 + ew::core::uniform_below(rng, 28)));
    }
    for (const std::uint8_t d : days_of_month) {
      const CivilDate day{m.year(), static_cast<std::uint8_t>(m.month()), d};
      const auto records = gen.day_records(day);
      if (!in->lake->append(day, records)) throw std::runtime_error("lake append failed");
      ew::analytics::DayAggregator agg(day, catalog);
      GroupMap groups;
      for (const auto& r : records) {
        agg.add(r);
        auto& g = groups[static_cast<std::uint32_t>(raw_service(r, catalog))];
        ++g.flows;
        g.bytes += r.up.bytes + r.down.bytes;
      }
      in->days.push_back(day);
      in->aggregates.push_back(std::move(agg).take());
      in->raw_groups.push_back(std::move(groups));
      in->blocks.push_back(in->lake->load_day_blocks(day).blocks().size());
      in->records += records.size();
      in->lake_bytes += in->lake->file_bytes(day);
    }
  }
  if (!with_rollup_refs) return in;

  for (const auto& agg : in->aggregates) {
    for (const auto& [ip, sub] : agg.subscribers) {
      for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
        if (sub.per_service[s].flows == 0 && sub.per_service[s].total() == 0) continue;
        auto& g = in->bytes_by_service[static_cast<std::uint32_t>(s)];
        g.flows += sub.per_service[s].flows;
        g.bytes += sub.per_service[s].total();
      }
    }
  }
  in->volume_trend = ew::analytics::volume_trend(in->aggregates);
  in->protocol_shares = ew::analytics::protocol_shares(in->aggregates);
  for (MonthIndex m = kFirstMonth; m <= kLastMonth; m = m + 1) {
    std::map<std::uint32_t, std::set<std::uint32_t>> users;
    for (const auto& agg : in->aggregates) {
      if (!(MonthIndex{agg.date} == m)) continue;
      for (const auto& [ip, sub] : agg.subscribers) {
        for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
          if (ew::analytics::uses_service(sub, catalog, static_cast<ServiceId>(s))) {
            users[static_cast<std::uint32_t>(s)].insert(ip.value());
          }
        }
      }
    }
    std::map<std::uint32_t, double> counts;
    for (const auto& [s, set] : users) counts[s] = static_cast<double>(set.size());
    in->months.push_back(m);
    in->month_users.push_back(std::move(counts));
  }
  for (const ServiceId service : kRttServices) {
    std::map<std::int64_t, std::vector<double>> weeks;
    for (const auto& agg : in->aggregates) {
      const auto& samples = agg.rtt_min_ms[static_cast<std::size_t>(service)];
      auto& week = weeks[iso_monday(agg.date)];
      week.insert(week.end(), samples.begin(), samples.end());
    }
    std::map<std::uint32_t, double> exact;
    for (const auto& [monday, samples] : weeks) {
      if (!samples.empty()) exact[static_cast<std::uint32_t>(monday)] = percentile(samples, 0.5);
    }
    in->weekly_rtt.push_back(std::move(exact));
  }
  return in;
}

/// Calendar days in [from, to] that hold no lake day.
std::size_t calendar_gaps(CivilDate from, CivilDate to, std::size_t lake_days) {
  const auto span = ew::core::days_from_civil(to) - ew::core::days_from_civil(from) + 1;
  return static_cast<std::size_t>(span) - lake_days;
}

/// Per-layer metrics both lake workloads measure standalone, serially, over
/// every lake day: the projected batch scan and the stage-one aggregate.
void add_standalone_scan_metrics(RunResult& result, const LakeInput& in) {
  const ew::storage::ScanPredicate projection = [] {
    ew::storage::ScanPredicate p;
    p.fields = ew::analytics::kDayAggregateScanFields;
    return p;
  }();
  const double scan_ns = time_per_item_ns(in.records, [&] {
    std::uint64_t rows = 0;
    for (const auto day : in.days) {
      (void)in.lake->scan_day_batches(day, projection, [&](const ew::exec::RecordBatch& b) {
        rows += b.delivered_rows();
      });
    }
    if (rows != in.records) result.fail("standalone batch scan delivered a different row count");
  });
  const double aggregate_ns = time_per_item_ns(in.records, [&] {
    std::uint64_t rows = 0;
    for (const auto day : in.days) {
      rows += ew::analytics::aggregate_day(*in.lake, day).scan.records_delivered;
    }
    if (rows != in.records) result.fail("standalone aggregate_day delivered a different row count");
  });
  result.per_layer.push_back({"storage.scan_ns_per_record", scan_ns, "ns"});
  result.per_layer.push_back({"analytics.aggregate_ns_per_record", aggregate_ns, "ns"});
}

void add_exec_metrics(RunResult& result, const ObsValues& obs) {
  const double passthrough = obs.get("exec_rows_dict_passthrough_total");
  const double materialized = obs.get("exec_rows_materialized_total");
  result.per_layer.push_back({"exec.rows_per_batch",
                              obs.get("exec_batch_rows.sum") / obs.get("exec_batch_rows.count"),
                              "rows"});
  result.per_layer.push_back(
      {"exec.dict_passthrough_share", passthrough / (passthrough + materialized), "ratio"});
}

/// Pool workers: every thread the process may use but the client's.
std::size_t worker_threads(const Options& options) {
  if (options.threads < 2) {
    throw std::runtime_error("the lake workloads need 2 CPUs (a client and a pool worker), "
                             "this process may use " + std::to_string(options.threads));
  }
  return options.threads - 1;
}

/// Length of one timed cycle. A rollup_query cycle is a cold build and then
/// query rounds until the cycle is over: long cycles keep most queries away
/// from the build's file writes and fsyncs. An adhoc_scan cycle is queries
/// and then the aggregates of every day.
constexpr double kRollupCycleSeconds = 5.0;
constexpr double kAdhocCycleSeconds = 1.0;

}  // namespace

// ------------------------------------------------------------- rollup_query

RunResult run_rollup_query(const Options& options) {
  RunResult result;
  const std::size_t workers = worker_threads(options);
  std::vector<double> setup_s;
  const auto in =
      repeated_setup<LakeInput>([&] { return make_lake(options, /*with_rollup_refs=*/true); },
                                setup_s);
  ew::core::ThreadPool pool(workers);
  const auto& catalog = ew::services::ServiceCatalog::standard();
  const CivilDate from = in->days.front();
  const CivilDate to = in->days.back();
  const std::size_t gaps = calendar_gaps(from, to, in->days.size());
  const std::size_t dims = 3;  // service, protocol, server ASN

  Tracer tracer(false);
  const bool peak_reset = reset_peak_rss();
  const double rss_base = rss_mb();
  ew::core::Xoshiro256 rng(ew::core::mix64(options.seed, 0x7011));

  std::vector<double> build_s, op_untraced, op_traced;
  std::map<std::string, std::vector<double>> per_kind_ms;
  std::size_t days_merged = 0, hll_rows = 0, hll_beyond_bound = 0;
  unsigned threads_seen = 0;
  double traced_wall = 0;
  ObsValues traced_obs;
  std::uint64_t cycle = 0, request = 0;
  const auto phase_start = Clock::now();
  while (keep_measuring(options, phase_start, cycle, op_untraced.size() + op_traced.size())) {
    const bool traced = options.trace && cycle % 2 == 1;
    tracer.set_enabled(traced);
    const ObsValues obs_before = scrape_obs();
    const auto cycle_start = Clock::now();

    Tracer::Scope prepare(tracer, "harness.prepare", request);
    const fs::path dir = in->work->path() / ("rollups-" + std::to_string(cycle));
    auto store = std::make_unique<ew::query::RollupStore>(dir, *in->lake, catalog,
                                                          in->scenario.rib.get());
    prepare.close();

    // Cold build over every lake day.
    const auto b0 = Clock::now();
    ew::query::BuildReport report;
    {
      Tracer::Scope build(tracer, "query.build", request);
      report = store->build(pool);
    }
    build_s.push_back(seconds_between(b0, Clock::now()));
    ++result.attempted;
    if (!report.ok() || report.built != in->days.size() * dims) {
      ++result.failed;
      result.fail("rollup build: " + std::to_string(report.built) + " built, " +
                  std::to_string(report.failed) + " failed");
    }

    // The figure query mix, one closed-loop client: whole rounds of the
    // mix, at least one, until the cycle ends.
    do {
      for (int kind = 0; kind < 5; ++kind) {
        const std::uint64_t id = request++;
        std::string problem;
        const char* name = nullptr;
        const auto q0 = Clock::now();
        double ms = 0;
        const auto stop = [&] { ms = seconds_between(q0, Clock::now()) * 1e3; };
        if (kind == 0) {
          name = "query.bytes_by_service";
          ew::query::QuerySpec spec;
          spec.metric = ew::query::Metric::kBytes;
          spec.dimension = ew::query::Dimension::kService;
          spec.from = from;
          spec.to = to;
          ew::query::QueryResult r;
          {
            Tracer::Scope span(tracer, name, id);
            r = ew::query::run_query(*store, spec, &pool);
          }
          stop();
          Tracer::Scope check(tracer, "harness.check", id);
          days_merged = r.days_merged;
          problem = check_exact_rows(r, spec.metric, in->bytes_by_service, std::nullopt,
                                     in->days.size(), gaps);
        } else if (kind == 1) {
          name = "query.volume_trend";
          std::vector<ew::analytics::VolumeTrendRow> rows;
          {
            Tracer::Scope span(tracer, name, id);
            rows = ew::query::volume_trend(*store, from, to, &pool);
          }
          stop();
          Tracer::Scope check(tracer, "harness.check", id);
          problem = check_volume_trend(rows, in->volume_trend);
        } else if (kind == 2) {
          name = "query.protocol_shares";
          std::vector<ew::analytics::ProtocolShareRow> rows;
          {
            Tracer::Scope span(tracer, name, id);
            rows = ew::query::protocol_shares(*store, from, to, &pool);
          }
          stop();
          Tracer::Scope check(tracer, "harness.check", id);
          problem = check_protocol_shares(rows, in->protocol_shares);
        } else if (kind == 3) {
          name = "query.top_services";
          const std::size_t m = ew::core::uniform_below(rng, in->months.size());
          std::vector<ew::query::QueryRow> rows;
          {
            Tracer::Scope span(tracer, name, id);
            rows = ew::query::top_services_by_subscribers(*store, in->months[m], kTopK, &pool);
          }
          stop();
          Tracer::Scope check(tracer, "harness.check", id);
          problem = check_within_bound(rows, in->month_users[m],
                                       std::min(kTopK, in->month_users[m].size()),
                                       &hll_beyond_bound);
          hll_rows += rows.size();
        } else {
          name = "query.weekly_rtt";
          const std::size_t s = ew::core::uniform_below(rng, std::size(kRttServices));
          std::vector<ew::query::QueryRow> rows;
          {
            Tracer::Scope span(tracer, name, id);
            rows = ew::query::weekly_rtt_quantile(*store, kRttServices[s], from, to, 0.5, &pool);
          }
          stop();
          Tracer::Scope check(tracer, "harness.check", id);
          for (auto& row : rows) {
            row.key = static_cast<std::uint32_t>(ew::core::days_from_civil(row.bucket));
          }
          problem = check_within_bound(rows, in->weekly_rtt[s], in->weekly_rtt[s].size());
        }
        ++result.attempted;
        if (!problem.empty()) {
          ++result.failed;
          result.fail(std::string(name) + ": " + problem);
        }
        (traced ? op_traced : op_untraced).push_back(ms);
        if (traced) per_kind_ms[name].push_back(ms);
      }
    } while (seconds_between(cycle_start, Clock::now()) < kRollupCycleSeconds);

    threads_seen = std::max(threads_seen, thread_count());
    Tracer::Scope cleanup(tracer, "harness.cleanup", request);
    store.reset();
    // The directory goes with the working directory at exit: deleting 378
    // files here would load the journal the next cold build fsyncs through.
    cleanup.close();
    if (traced) {
      traced_wall += seconds_between(cycle_start, Clock::now());
      obs_add(traced_obs, obs_delta(obs_before, scrape_obs()));
    }
    ++cycle;
  }
  const double rss_growth = peak_rss_mb() - rss_base;

  result.extra.push_back({"lake.days", static_cast<double>(in->days.size()), "count"});
  result.extra.push_back({"lake.records", static_cast<double>(in->records), "count"});
  result.extra.push_back({"lake.calendar_gaps", static_cast<double>(gaps), "count"});
  result.extra.push_back({"rollup.cycles", static_cast<double>(cycle), "count"});
  result.extra.push_back({"rollup_build_s", median(build_s), "s"});
  result.extra.push_back({"threads.pool", static_cast<double>(pool.size()), "count"});
  check_thread_budget(result, options, threads_seen);
  result.extra.push_back({"sketch.hll_rows", static_cast<double>(hll_rows), "count"});
  result.extra.push_back(
      {"sketch.hll_rows_beyond_bound", static_cast<double>(hll_beyond_bound), "count"});
  result.extra.push_back({"error_rate", static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted), "ratio"});
  if (!peak_reset) result.extra.push_back({"rss.peak_reset_failed", 1, "flag"});

  if (!options.trace) {
    result.extra.push_back({"query_p50_ms", percentile(op_untraced, 0.5), "ms"});
    result.extra.push_back({"query_p99_ms", percentile(op_untraced, 0.99), "ms"});
    // The bulk rate is the client's query throughput, not the cold build's
    // record rate: a build is ~400 small fsynced file writes, whose latency
    // on a shared disk swings its wall time by half from run to run. The
    // build stays in the timed phase and is reported above and per layer.
    double query_s = 0;
    for (const double ms : op_untraced) query_s += ms * 1e-3;
    set_end_to_end(result, setup_s, rss_growth,
                   static_cast<double>(in->lake_bytes) / static_cast<double>(in->records),
                   static_cast<double>(op_untraced.size()) / query_s, op_untraced);
    return result;
  }

  add_standalone_scan_metrics(result, *in);
  add_exec_metrics(result, traced_obs);
  result.per_layer.push_back(
      {"query.build_ms_per_day",
       median(tracer.durations("query.build")) * 1e3 / static_cast<double>(in->days.size()),
       "ms"});
  for (const auto& [name, ms] : per_kind_ms) {
    result.per_layer.push_back({name + "_ms", median(ms), "ms"});
  }
  result.per_layer.push_back({"query.days_merged", static_cast<double>(days_merged), "count"});
  result.per_layer.push_back(
      {"trace.overhead_pct", (median(op_traced) / median(op_untraced) - 1.0) * 100.0, "%"});
  add_attribution(result, tracer, traced_wall);
  write_trace_files(options, tracer);
  return result;
}

// --------------------------------------------------------------- adhoc_scan

RunResult run_adhoc_scan(const Options& options) {
  RunResult result;
  const std::size_t workers = worker_threads(options);
  std::vector<double> setup_s;
  const auto in =
      repeated_setup<LakeInput>([&] { return make_lake(options, /*with_rollup_refs=*/false); },
                                setup_s);
  ew::core::ThreadPool pool(workers);
  const auto& catalog = ew::services::ServiceCatalog::standard();
  // No rollups: every question falls back to the raw lake.
  const ew::query::RollupStore store(in->work->path() / "rollups-empty", *in->lake, catalog,
                                     in->scenario.rib.get());

  Tracer tracer(false);
  const bool peak_reset = reset_peak_rss();
  const double rss_base = rss_mb();
  ew::core::Xoshiro256 rng(ew::core::mix64(options.seed, 0xad0c));

  std::vector<double> op_untraced, op_traced;
  double scan_rows = 0, scan_s = 0;
  unsigned threads_seen = 0;
  double traced_wall = 0, blocks_visited = 0, rows_answered = 0, raw_days = 0, traced_queries = 0;
  ObsValues query_obs, traced_obs;
  std::uint64_t cycle = 0, request = 0;
  const auto phase_start = Clock::now();
  while (keep_measuring(options, phase_start, cycle, op_untraced.size() + op_traced.size())) {
    const bool traced = options.trace && cycle % 2 == 1;
    tracer.set_enabled(traced);
    const ObsValues obs_before = scrape_obs();
    const auto cycle_start = Clock::now();

    // Raw-fallback questions over one or two consecutive lake days; every
    // other one is restricted to a single service (zone-map pruning).
    do {
      const std::uint64_t id = request++;
      const std::size_t span_days = 1 + ew::core::uniform_below(rng, 2);
      const std::size_t first = ew::core::uniform_below(rng, in->days.size() - span_days + 1);
      ew::query::QuerySpec spec;
      spec.metric = ew::query::Metric::kBytes;
      spec.dimension = ew::query::Dimension::kService;
      spec.from = in->days[first];
      spec.to = in->days[first + span_days - 1];
      spec.raw_fallback = true;
      if (id % 2 == 1) {
        spec.group = static_cast<std::uint32_t>(
            ew::core::uniform_below(rng, ew::services::kNamedServiceCount));
      }
      const auto q0 = Clock::now();
      ew::query::QueryResult r;
      {
        Tracer::Scope span(tracer, "query.raw_fallback", id);
        r = ew::query::run_query(store, spec, &pool);
      }
      const double ms = seconds_between(q0, Clock::now()) * 1e3;

      Tracer::Scope check(tracer, "harness.check", id);
      GroupMap expected;
      for (std::size_t d = first; d < first + span_days; ++d) {
        for (const auto& [key, g] : in->raw_groups[d]) {
          expected[key].flows += g.flows;
          expected[key].bytes += g.bytes;
        }
        if (traced) blocks_visited += static_cast<double>(in->blocks[d]);
      }
      std::string problem = check_exact_rows(r, spec.metric, expected, spec.group, span_days,
                                             calendar_gaps(spec.from, spec.to, span_days));
      if (problem.empty() && r.days_scanned_raw != span_days) problem = "days scanned raw differ";
      ++result.attempted;
      if (!problem.empty()) {
        ++result.failed;
        result.fail("raw-fallback query: " + problem);
      }
      (traced ? op_traced : op_untraced).push_back(ms);
      if (traced) {
        rows_answered += static_cast<double>(r.rows.size());
        raw_days += static_cast<double>(r.days_scanned_raw);
        ++traced_queries;
      }
    } while (seconds_between(cycle_start, Clock::now()) < kAdhocCycleSeconds);
    const ObsValues obs_mid = scrape_obs();

    // Stage-one aggregates of every lake day, blocks fanned out over the pool.
    for (std::size_t d = 0; d < in->days.size(); ++d) {
      const std::uint64_t id = request++;
      const auto a0 = Clock::now();
      ew::analytics::DayScanAggregate agg;
      {
        Tracer::Scope span(tracer, "analytics.aggregate_day_parallel", id);
        agg = ew::analytics::aggregate_day_parallel(*in->lake, in->days[d], pool, catalog);
      }
      scan_s += seconds_between(a0, Clock::now());
      scan_rows += static_cast<double>(agg.scan.records_delivered);
      Tracer::Scope check(tracer, "harness.check", id);
      std::string problem = agg.scan.ok() ? check_aggregate(agg.aggregate, in->aggregates[d])
                                          : std::string("scan reported an error");
      ++result.attempted;
      if (!problem.empty()) {
        ++result.failed;
        result.fail("aggregate_day_parallel " + in->days[d].to_string() + ": " + problem);
      }
    }
    threads_seen = std::max(threads_seen, thread_count());
    if (traced) {
      traced_wall += seconds_between(cycle_start, Clock::now());
      const ObsValues obs_after = scrape_obs();
      obs_add(query_obs, obs_delta(obs_before, obs_mid));
      obs_add(traced_obs, obs_delta(obs_before, obs_after));
    }
    ++cycle;
  }
  const double rss_growth = peak_rss_mb() - rss_base;

  result.extra.push_back({"lake.days", static_cast<double>(in->days.size()), "count"});
  result.extra.push_back({"lake.records", static_cast<double>(in->records), "count"});
  result.extra.push_back({"adhoc.cycles", static_cast<double>(cycle), "count"});
  result.extra.push_back({"scan_rows_per_s", scan_rows / scan_s, "rows/s"});
  result.extra.push_back({"threads.pool", static_cast<double>(pool.size()), "count"});
  check_thread_budget(result, options, threads_seen);
  result.extra.push_back({"error_rate", static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted), "ratio"});
  if (!peak_reset) result.extra.push_back({"rss.peak_reset_failed", 1, "flag"});

  if (!options.trace) {
    result.extra.push_back({"adhoc_p50_ms", percentile(op_untraced, 0.5), "ms"});
    result.extra.push_back({"adhoc_p99_ms", percentile(op_untraced, 0.99), "ms"});
    set_end_to_end(result, setup_s, rss_growth,
                   static_cast<double>(in->lake_bytes) / static_cast<double>(in->records),
                   scan_rows / scan_s, op_untraced);
    return result;
  }

  add_standalone_scan_metrics(result, *in);
  add_exec_metrics(result, traced_obs);
  result.per_layer.push_back({"storage.blocks_pruned_share",
                              query_obs.get("lake_scan_blocks_pruned_total") / blocks_visited,
                              "ratio"});
  result.per_layer.push_back({"storage.segments_skipped",
                              query_obs.get("lake_scan_segments_skipped_total") / traced_queries,
                              "count"});
  result.per_layer.push_back({"storage.records_per_answer",
                              query_obs.get("lake_scan_records_total") / rows_answered, "ratio"});
  result.per_layer.push_back({"query.days_scanned_raw", raw_days / traced_queries, "count"});
  result.per_layer.push_back(
      {"trace.overhead_pct", (median(op_traced) / median(op_untraced) - 1.0) * 100.0, "%"});
  add_attribution(result, tracer, traced_wall);
  write_trace_files(options, tracer);
  return result;
}

}  // namespace perfbench
