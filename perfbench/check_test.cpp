// The benchmark's own tests: every output check accepts the program's real
// answer and rejects a corrupted one. Run with `python3 perfbench/run.py
// --self-test`; exits non-zero when any expectation fails.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "analytics/figures.hpp"
#include "analytics/parallel.hpp"
#include "checks.hpp"
#include "core/thread_pool.hpp"
#include "harness.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"

namespace ew = edgewatch;
using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void expect_pass(const std::string& problem, const char* what) {
  if (!problem.empty()) std::printf("     unexpected: %s\n", problem.c_str());
  expect(problem.empty(), what);
}

void expect_reject(const std::string& problem, const char* what) {
  expect(!problem.empty(), what);
}

struct Fixture {
  WorkDir work{".bench_work"};
  ew::synth::Scenario scenario = ew::synth::build_paper_scenario(5, 0.05);
  ew::storage::DataLake lake{work.path() / "lake"};
  std::vector<ew::core::CivilDate> days = {{2015, 6, 10}, {2015, 6, 11}, {2015, 7, 10}};
  std::vector<std::vector<ew::flow::FlowRecord>> records;
  std::vector<ew::analytics::DayAggregate> aggregates;

  Fixture() {
    const ew::synth::WorkloadGenerator gen{scenario};
    for (const auto day : days) {
      records.push_back(gen.day_records(day));
      (void)lake.append(day, records.back());
      ew::analytics::DayAggregator agg(day);
      for (const auto& r : records.back()) agg.add(r);
      aggregates.push_back(std::move(agg).take());
    }
  }
};

void test_ingest(Fixture& f) {
  RecordDigest expected;
  TrafficByTuple traffic;
  for (const auto& day : f.records) {
    for (const auto& r : day) {
      expected.add(r);
      traffic.add(r);
    }
  }
  IngestOutcome good;
  good.frames_in_trace = 1000;
  good.health.frames_offered = 1000;
  good.health.frames_ingested = 1000;
  good.fsck_clean = f.lake.fsck().clean();
  good.stored = read_lake(f.lake);
  expect_pass(check_ingest(good, expected, traffic),
              "ingest: the lake holds the reference records");

  auto shed = good;
  shed.health.frames_ingested = 999;
  shed.health.shed_backpressure = 1;
  expect_reject(check_ingest(shed, expected, traffic), "ingest: a shed frame fails");
  auto quarantined = good;
  quarantined.health.frames_ingested = 999;
  quarantined.health.frames_quarantined = 1;
  expect_reject(check_ingest(quarantined, expected, traffic), "ingest: a quarantined frame fails");
  auto unreconciled = good;
  unreconciled.health.frames_ingested = 998;
  expect_reject(check_ingest(unreconciled, expected, traffic),
                "ingest: unreconciled health fails");
  auto decode = good;
  decode.decode_failures = 1;
  expect_reject(check_ingest(decode, expected, traffic), "ingest: a decode failure fails");

  // One record altered in one field: same count, different digest.
  LakeContents altered;
  for (std::size_t d = 0; d < f.records.size(); ++d) {
    for (std::size_t i = 0; i < f.records[d].size(); ++i) {
      auto r = f.records[d][i];
      if (d == 1 && i == 7) r.rtt.min_us += 1;
      altered.records.add(r);
      altered.traffic.add(r);
    }
  }
  auto wrong = good;
  wrong.stored = altered;
  expect_reject(check_ingest(wrong, expected, traffic), "ingest: an altered record fails");
  auto lost = good;
  lost.stored.records.count -= 1;
  expect_reject(check_ingest(lost, expected, traffic), "ingest: a lost record fails");
  // The records match but a tuple carried one byte less than the serial
  // probe saw.
  auto short_traffic = traffic;
  short_traffic.totals.begin()->second[3] += 1;
  expect_reject(check_ingest(good, expected, short_traffic),
                "ingest: per-tuple traffic off by one byte fails");

  // Damage on disk: fsck sees it and the read-back loses the damaged block.
  ew::storage::DataLake damaged{f.work.path() / "damaged"};
  (void)damaged.append(f.days[0], f.records[0]);
  const auto path = damaged.root() / ew::storage::DataLake::day_filename(f.days[0]);
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
    const char junk[16] = {};
    file.write(junk, sizeof junk);
  }
  RecordDigest day0;
  TrafficByTuple day0_traffic;
  for (const auto& r : f.records[0]) {
    day0.add(r);
    day0_traffic.add(r);
  }
  auto corrupt = good;
  corrupt.fsck_clean = damaged.fsck().clean();
  corrupt.stored = read_lake(damaged);
  expect_reject(check_ingest(corrupt, day0, day0_traffic), "ingest: a damaged day file fails");
  corrupt.fsck_clean = true;
  expect_reject(check_ingest(corrupt, day0, day0_traffic),
                "ingest: records lost to damage fail even when fsck is not consulted");
}

void test_rollup_queries(Fixture& f, ew::core::ThreadPool& pool) {
  ew::query::RollupStore store(f.work.path() / "rollups", f.lake,
                               ew::services::ServiceCatalog::standard(), f.scenario.rib.get());
  expect(store.build(pool).ok(), "rollup build succeeds");
  const auto from = f.days.front();
  const auto to = f.days.back();
  const std::size_t gaps = 31 - f.days.size();  // 2015-06-10 .. 2015-07-10

  GroupMap bytes;
  for (const auto& agg : f.aggregates) {
    for (const auto& [ip, sub] : agg.subscribers) {
      for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
        if (sub.per_service[s].flows == 0 && sub.per_service[s].total() == 0) continue;
        bytes[static_cast<std::uint32_t>(s)].flows += sub.per_service[s].flows;
        bytes[static_cast<std::uint32_t>(s)].bytes += sub.per_service[s].total();
      }
    }
  }
  ew::query::QuerySpec spec;
  spec.from = from;
  spec.to = to;
  auto result = ew::query::run_query(store, spec, &pool);
  expect_pass(check_exact_rows(result, spec.metric, bytes, std::nullopt, f.days.size(), gaps),
              "bytes by service: the real answer passes");
  auto off_by_one = result;
  off_by_one.rows.front().value += 1;
  expect_reject(check_exact_rows(off_by_one, spec.metric, bytes, std::nullopt, f.days.size(), gaps),
                "bytes by service: a value off by one byte fails");
  auto dropped = result;
  dropped.rows.pop_back();
  expect_reject(check_exact_rows(dropped, spec.metric, bytes, std::nullopt, f.days.size(), gaps),
                "bytes by service: a missing row fails");
  auto short_range = result;
  short_range.days_merged -= 1;
  expect_reject(
      check_exact_rows(short_range, spec.metric, bytes, std::nullopt, f.days.size(), gaps),
      "bytes by service: a day left out fails");
  auto missing = result;
  missing.missing_days.push_back(from);
  expect_reject(check_exact_rows(missing, spec.metric, bytes, std::nullopt, f.days.size(), gaps),
                "bytes by service: an extra missing day fails");

  const auto trend_ref = ew::analytics::volume_trend(f.aggregates);
  auto trend = ew::query::volume_trend(store, from, to, &pool);
  expect_pass(check_volume_trend(trend, trend_ref), "volume trend: the real answer passes");
  trend.back().down_mb[1] *= 1.000001;
  expect_reject(check_volume_trend(trend, trend_ref), "volume trend: a perturbed average fails");

  const auto shares_ref = ew::analytics::protocol_shares(f.aggregates);
  auto shares = ew::query::protocol_shares(store, from, to, &pool);
  expect_pass(check_protocol_shares(shares, shares_ref), "protocol shares: the real answer passes");
  shares.front().share_pct[1] = std::nextafter(shares.front().share_pct[1], 200.0);
  expect_reject(check_protocol_shares(shares, shares_ref),
                "protocol shares: a share one ulp off fails");

  const auto& catalog = ew::services::ServiceCatalog::standard();
  std::map<std::uint32_t, std::set<std::uint32_t>> users;
  for (std::size_t d = 0; d < 2; ++d) {  // the June days
    for (const auto& [ip, sub] : f.aggregates[d].subscribers) {
      for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
        if (ew::analytics::uses_service(sub, catalog, static_cast<ew::services::ServiceId>(s))) {
          users[static_cast<std::uint32_t>(s)].insert(ip.value());
        }
      }
    }
  }
  std::map<std::uint32_t, double> exact;
  for (const auto& [s, set] : users) exact[s] = static_cast<double>(set.size());
  auto top = ew::query::top_services_by_subscribers(store, ew::core::MonthIndex{2015, 6}, 10,
                                                    &pool);
  const std::size_t rows = std::min<std::size_t>(10, exact.size());
  expect_pass(check_within_bound(top, exact, rows), "top services: the real answer passes");
  auto inflated = top;
  inflated.front().value = exact[inflated.front().key] * (1 + 1.5 * inflated.front().error_bound);
  std::size_t beyond = 0;
  expect_reject(check_within_bound(inflated, exact, rows, &beyond),
                "top services: an estimate beyond its bound fails");
  expect(beyond == 1, "top services: ... and is counted as beyond its bound");
  auto truncated = top;
  truncated.pop_back();
  expect_reject(check_within_bound(truncated, exact, rows), "top services: a missing row fails");

  // Weekly RTT medians, keyed by the ISO week's Monday as the workload does.
  const auto service = ew::services::ServiceId::kFacebook;
  auto weekly = ew::query::weekly_rtt_quantile(store, service, from, to, 0.5, &pool);
  std::map<std::uint32_t, double> medians;
  for (auto& row : weekly) {
    const auto monday = ew::core::days_from_civil(row.bucket);
    std::vector<double> samples;
    for (const auto& agg : f.aggregates) {
      const auto z = ew::core::days_from_civil(agg.date);
      if (z < monday || z >= monday + 7) continue;
      const auto& day = agg.rtt_min_ms[static_cast<std::size_t>(service)];
      samples.insert(samples.end(), day.begin(), day.end());
    }
    row.key = static_cast<std::uint32_t>(monday);
    medians[row.key] = percentile(samples, 0.5);
  }
  expect_pass(check_within_bound(weekly, medians, medians.size()),
              "weekly RTT: the real answer passes");
  auto slow = weekly;
  slow.back().value *= 1 + 2 * slow.back().error_bound;
  expect_reject(check_within_bound(slow, medians, medians.size()),
                "weekly RTT: a median beyond the sketch accuracy fails");
}

void test_aggregates(Fixture& f, ew::core::ThreadPool& pool) {
  const auto& ref = f.aggregates[0];
  auto got = ew::analytics::aggregate_day_parallel(f.lake, f.days[0], pool).aggregate;
  expect_pass(check_aggregate(got, ref), "aggregate_day_parallel: the real answer passes");

  auto bytes = got;
  bytes.web_bytes[1] += 1;
  expect_reject(check_aggregate(bytes, ref), "aggregate: one web byte more fails");
  auto order = got;
  for (auto& samples : order.rtt_min_ms) {
    if (samples.size() > 1) {
      std::swap(samples.front(), samples.back());
      break;
    }
  }
  expect_reject(check_aggregate(order, ref), "aggregate: reordered RTT samples fail");
  auto subscriber = got;
  subscriber.subscribers.begin()->second.per_service[0].flows += 1;
  expect_reject(check_aggregate(subscriber, ref), "aggregate: one subscriber flow more fails");

  // Raw-fallback answers against the in-memory attribution.
  const auto& catalog = ew::services::ServiceCatalog::standard();
  GroupMap groups;
  for (const auto& r : f.records[0]) {
    auto& g = groups[static_cast<std::uint32_t>(raw_service(r, catalog))];
    ++g.flows;
    g.bytes += r.up.bytes + r.down.bytes;
  }
  const ew::query::RollupStore empty(f.work.path() / "no-rollups", f.lake);
  ew::query::QuerySpec spec;
  spec.from = spec.to = f.days[0];
  spec.raw_fallback = true;
  spec.group = static_cast<std::uint32_t>(ew::services::ServiceId::kFacebook);
  auto result = ew::query::run_query(empty, spec, &pool);
  expect_pass(check_exact_rows(result, spec.metric, groups, spec.group, 1, 0),
              "raw fallback: the real answer passes");
  auto other_service = result;
  other_service.rows.front().key = static_cast<std::uint32_t>(ew::services::ServiceId::kGoogle);
  expect_reject(check_exact_rows(other_service, spec.metric, groups, spec.group, 1, 0),
                "raw fallback: a row of another service fails");
  auto approximate = result;
  approximate.rows.front().error_bound = 0.01;
  expect_reject(check_exact_rows(approximate, spec.metric, groups, spec.group, 1, 0),
                "raw fallback: an exact row with an error bound fails");
}

}  // namespace

int main() {
  Fixture fixture;
  ew::core::ThreadPool pool(2);
  test_ingest(fixture);
  test_rollup_queries(fixture, pool);
  test_aggregates(fixture, pool);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
