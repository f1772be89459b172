// Output checks of the benchmark. Each check compares an answer the
// program gave against a reference computed in setup, and returns an
// empty string when they agree or a description of the first difference.
// They run outside the timed region; check_test.cpp feeds each one a
// corrupted answer to show it fails.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "analytics/figures.hpp"
#include "flow/record.hpp"
#include "query/engine.hpp"
#include "runtime/health.hpp"
#include "services/catalog.hpp"
#include "storage/datalake.hpp"

namespace perfbench {

/// Order-independent digest of a multiset of flow records over every field
/// the lake persists.
struct RecordDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t mix = 0;

  void add(const edgewatch::flow::FlowRecord& record);
  bool operator==(const RecordDigest&) const = default;
};

/// Packets and payload bytes each five-tuple carried, summed over its
/// records: equal for two exports that cut the same packets into flows at
/// different points.
struct TrafficByTuple {
  std::map<edgewatch::core::FiveTuple, std::array<std::uint64_t, 4>> totals;

  void add(const edgewatch::flow::FlowRecord& record);
  bool operator==(const TrafficByTuple&) const = default;
};

/// What a lake holds, read back record by record.
struct LakeContents {
  RecordDigest records;
  TrafficByTuple traffic;
};
[[nodiscard]] LakeContents read_lake(const edgewatch::storage::DataLake& lake);

/// Ingest: the supervisor accounted for every frame and lost none, the lake
/// is clean, it holds exactly the records the sharded probe it supervises
/// exports for the trace, and every five-tuple carries the traffic the
/// serial probe saw. (The sharded probe may cut a flow where the serial
/// probe does not: each shard's clock advances only on its own packets,
/// so an idle timeout can pass unseen before the tuple's next packet.)
struct IngestOutcome {
  edgewatch::runtime::HealthSnapshot health;
  std::uint64_t frames_in_trace = 0;
  std::uint64_t decode_failures = 0;
  bool fsck_clean = false;
  LakeContents stored;
};
[[nodiscard]] std::string check_ingest(const IngestOutcome& outcome,
                                       const RecordDigest& sharded_records,
                                       const TrafficByTuple& serial_traffic);

/// Per-group exact counters, keyed by ServiceId (or protocol).
struct GroupTotals {
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  bool operator==(const GroupTotals&) const = default;
};
using GroupMap = std::map<std::uint32_t, GroupTotals>;

/// The raw-fallback service attribution of one record, as the query
/// engine computes it for rollup-less days.
[[nodiscard]] edgewatch::services::ServiceId raw_service(
    const edgewatch::flow::FlowRecord& record, const edgewatch::services::ServiceCatalog& catalog);

/// Exact rows (kBytes or kFlows, one bucket) against reference totals;
/// `group` restricts the reference to one key. The range holds
/// `expected_days` lake days and `expected_missing` days without one.
[[nodiscard]] std::string check_exact_rows(const edgewatch::query::QueryResult& result,
                                           edgewatch::query::Metric metric,
                                           const GroupMap& expected,
                                           std::optional<std::uint32_t> group,
                                           std::size_t expected_days,
                                           std::size_t expected_missing);

[[nodiscard]] std::string check_volume_trend(
    const std::vector<edgewatch::analytics::VolumeTrendRow>& got,
    const std::vector<edgewatch::analytics::VolumeTrendRow>& expected);
[[nodiscard]] std::string check_protocol_shares(
    const std::vector<edgewatch::analytics::ProtocolShareRow>& got,
    const std::vector<edgewatch::analytics::ProtocolShareRow>& expected);

/// Sketch answers: every expected key (or bucket) present, and each row's
/// value within its documented relative bound of the exact value. Every
/// row beyond the bound is added to `*beyond_bound`.
[[nodiscard]] std::string check_within_bound(const std::vector<edgewatch::query::QueryRow>& got,
                                             const std::map<std::uint32_t, double>& exact,
                                             std::size_t expected_rows,
                                             std::size_t* beyond_bound = nullptr);

/// Day aggregates compared field by field (exact, including RTT sample order).
[[nodiscard]] std::string check_aggregate(const edgewatch::analytics::DayAggregate& got,
                                          const edgewatch::analytics::DayAggregate& expected);

}  // namespace perfbench
