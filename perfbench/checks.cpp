#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/rng.hpp"
#include "dpi/classifier.hpp"

namespace perfbench {

namespace ew = edgewatch;

namespace {

std::uint64_t hash_bytes(std::uint64_t h, std::string_view s) {
  for (const char c : s) h = ew::core::mix64(h, static_cast<unsigned char>(c));
  return ew::core::mix64(h, s.size());
}

std::string describe(const char* what, double got, double expected) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: got %.17g, expected %.17g", what, got, expected);
  return buf;
}

}  // namespace

void RecordDigest::add(const ew::flow::FlowRecord& r) {
  std::uint64_t h = ew::core::mix64(r.client_ip.value(), r.server_ip.value(),
                                    (std::uint64_t{r.client_port} << 16) | r.server_port);
  h = ew::core::mix64(h, static_cast<std::uint64_t>(r.proto) |
                             (static_cast<std::uint64_t>(r.access) << 8) |
                             (static_cast<std::uint64_t>(r.l7) << 16) |
                             (static_cast<std::uint64_t>(r.web) << 24) |
                             (static_cast<std::uint64_t>(r.name_source) << 32) |
                             (static_cast<std::uint64_t>(r.close_reason) << 40) |
                             (static_cast<std::uint64_t>(r.handshake_completed) << 48));
  h = ew::core::mix64(h, static_cast<std::uint64_t>(r.first_packet.micros()),
                      static_cast<std::uint64_t>(r.last_packet.micros()));
  for (const auto* d : {&r.up, &r.down}) {
    h = ew::core::mix64(h, d->packets, d->bytes);
    h = ew::core::mix64(h, d->bytes_with_hdr, d->retransmits);
    h = ew::core::mix64(h, d->out_of_order);
  }
  h = ew::core::mix64(h, r.rtt.samples, static_cast<std::uint64_t>(r.rtt.min_us));
  h = ew::core::mix64(h, static_cast<std::uint64_t>(r.rtt.max_us), r.http_status);
  h = hash_bytes(h, r.server_name);
  h = hash_bytes(h, r.content_type);
  ++count;
  sum += h;
  mix += ew::core::mix64(h, 0x5ca1ab1e);
}

void TrafficByTuple::add(const ew::flow::FlowRecord& r) {
  const ew::core::FiveTuple key{r.client_ip, r.server_ip, r.client_port, r.server_port, r.proto};
  auto& t = totals[key];
  t[0] += r.up.packets;
  t[1] += r.down.packets;
  t[2] += r.up.bytes;
  t[3] += r.down.bytes;
}

LakeContents read_lake(const ew::storage::DataLake& lake) {
  LakeContents c;
  for (const auto day : lake.days()) {
    (void)lake.scan_day(day, [&](const ew::flow::FlowRecord& r) {
      c.records.add(r);
      c.traffic.add(r);
    });
  }
  return c;
}

std::string check_ingest(const IngestOutcome& o, const RecordDigest& sharded_records,
                         const TrafficByTuple& serial_traffic) {
  const auto& h = o.health;
  if (h.frames_offered != o.frames_in_trace) {
    return describe("frames offered", static_cast<double>(h.frames_offered),
                    static_cast<double>(o.frames_in_trace));
  }
  if (!h.reconciles()) return "supervisor health does not reconcile";
  if (h.shed_total() != 0) return describe("frames shed", static_cast<double>(h.shed_total()), 0);
  if (h.frames_quarantined != 0) {
    return describe("frames quarantined", static_cast<double>(h.frames_quarantined), 0);
  }
  if (o.decode_failures != 0) {
    return describe("decode failures", static_cast<double>(o.decode_failures), 0);
  }
  if (!o.fsck_clean) return "fsck reports the lake unclean";
  if (o.stored.records.count != sharded_records.count) {
    return describe("records stored", static_cast<double>(o.stored.records.count),
                    static_cast<double>(sharded_records.count));
  }
  if (!(o.stored.records == sharded_records)) {
    return "stored records differ from the sharded probe's export";
  }
  if (!(o.stored.traffic == serial_traffic)) {
    return "per-tuple traffic differs from the serial probe's export";
  }
  return {};
}

ew::services::ServiceId raw_service(const ew::flow::FlowRecord& r,
                                     const ew::services::ServiceCatalog& catalog) {
  if (ew::dpi::is_p2p(r.l7)) return ew::services::ServiceId::kPeerToPeer;
  if (r.server_name.empty()) return ew::services::ServiceId::kOther;
  return catalog.classify_domain(r.server_name);
}

std::string check_exact_rows(const ew::query::QueryResult& result, ew::query::Metric metric,
                             const GroupMap& expected, std::optional<std::uint32_t> group,
                             std::size_t expected_days, std::size_t expected_missing) {
  if (!result.ok()) return "query returned an error";
  if (result.missing_days.size() != expected_missing) {
    return describe("missing days", static_cast<double>(result.missing_days.size()),
                    static_cast<double>(expected_missing));
  }
  if (result.days_merged != expected_days) {
    return describe("days merged", static_cast<double>(result.days_merged),
                    static_cast<double>(expected_days));
  }
  std::size_t expected_rows = 0;
  for (const auto& [key, totals] : expected) {
    if (!group || *group == key) ++expected_rows;
  }
  if (result.rows.size() != expected_rows) {
    return describe("rows", static_cast<double>(result.rows.size()),
                    static_cast<double>(expected_rows));
  }
  for (const auto& row : result.rows) {
    const auto it = expected.find(row.key);
    if (it == expected.end() || (group && *group != row.key)) return "unexpected row key";
    const double want = static_cast<double>(metric == ew::query::Metric::kFlows
                                                ? it->second.flows
                                                : it->second.bytes);
    if (row.value != want || row.error_bound != 0.0) {
      return describe("exact row value", row.value, want);
    }
  }
  return {};
}

std::string check_volume_trend(const std::vector<ew::analytics::VolumeTrendRow>& got,
                               const std::vector<ew::analytics::VolumeTrendRow>& expected) {
  if (got.size() != expected.size()) {
    return describe("volume trend months", static_cast<double>(got.size()),
                    static_cast<double>(expected.size()));
  }
  for (std::size_t m = 0; m < got.size(); ++m) {
    if (!(got[m].month == expected[m].month)) return "volume trend month differs";
    for (std::size_t t = 0; t < ew::analytics::kAccessTechCount; ++t) {
      // Rollups sum exact integers, the full scan accumulates doubles:
      // equal up to summation order.
      const auto near = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
      };
      if (!near(got[m].down_mb[t], expected[m].down_mb[t])) {
        return describe("volume trend down_mb", got[m].down_mb[t], expected[m].down_mb[t]);
      }
      if (!near(got[m].up_mb[t], expected[m].up_mb[t])) {
        return describe("volume trend up_mb", got[m].up_mb[t], expected[m].up_mb[t]);
      }
      if (got[m].subscribers[t] != expected[m].subscribers[t]) {
        return describe("volume trend subscribers", static_cast<double>(got[m].subscribers[t]),
                        static_cast<double>(expected[m].subscribers[t]));
      }
    }
  }
  return {};
}

std::string check_protocol_shares(const std::vector<ew::analytics::ProtocolShareRow>& got,
                                  const std::vector<ew::analytics::ProtocolShareRow>& expected) {
  if (got.size() != expected.size()) {
    return describe("protocol share months", static_cast<double>(got.size()),
                    static_cast<double>(expected.size()));
  }
  for (std::size_t m = 0; m < got.size(); ++m) {
    if (!(got[m].month == expected[m].month)) return "protocol share month differs";
    for (std::size_t p = 0; p < ew::analytics::kWebProtocolCount; ++p) {
      if (got[m].share_pct[p] != expected[m].share_pct[p]) {
        return describe("protocol share", got[m].share_pct[p], expected[m].share_pct[p]);
      }
    }
  }
  return {};
}

std::string check_within_bound(const std::vector<ew::query::QueryRow>& got,
                               const std::map<std::uint32_t, double>& exact,
                               std::size_t expected_rows, std::size_t* beyond_bound) {
  if (got.size() != expected_rows) {
    return describe("sketch rows", static_cast<double>(got.size()),
                    static_cast<double>(expected_rows));
  }
  std::string problem;
  for (const auto& row : got) {
    const auto it = exact.find(row.key);
    if (it == exact.end()) return "sketch row for an unexpected key";
    if (!(row.error_bound > 0)) return "sketch row without an error bound";
    if (!(std::abs(row.value - it->second) <= row.error_bound * it->second)) {
      if (beyond_bound != nullptr) ++*beyond_bound;
      if (problem.empty()) problem = describe("sketch row outside its bound", row.value, it->second);
    }
  }
  return problem;
}

std::string check_aggregate(const ew::analytics::DayAggregate& a,
                            const ew::analytics::DayAggregate& b) {
  if (!(a.date == b.date)) return "aggregate date differs";
  if (a.web_bytes != b.web_bytes) return "aggregate web bytes differ";
  if (a.downlink_bins != b.downlink_bins) return "aggregate downlink bins differ";
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    if (a.rtt_min_ms[s] != b.rtt_min_ms[s]) return "aggregate RTT samples differ";
    if (a.health[s].packets != b.health[s].packets ||
        a.health[s].retransmits != b.health[s].retransmits ||
        a.health[s].out_of_order != b.health[s].out_of_order) {
      return "aggregate service health differs";
    }
  }
  if (a.subscribers.size() != b.subscribers.size()) {
    return describe("aggregate subscribers", static_cast<double>(a.subscribers.size()),
                    static_cast<double>(b.subscribers.size()));
  }
  for (const auto& [ip, sub] : a.subscribers) {
    const auto it = b.subscribers.find(ip);
    if (it == b.subscribers.end()) return "aggregate subscriber missing";
    const auto& other = it->second;
    if (sub.access != other.access || sub.flows != other.flows ||
        sub.bytes_up != other.bytes_up || sub.bytes_down != other.bytes_down) {
      return "aggregate subscriber totals differ";
    }
    for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
      const auto& x = sub.per_service[s];
      const auto& y = other.per_service[s];
      if (x.flows != y.flows || x.bytes_up != y.bytes_up || x.bytes_down != y.bytes_down) {
        return "aggregate per-service traffic differs";
      }
    }
  }
  if (a.server_ips.size() != b.server_ips.size()) return "aggregate server IPs differ";
  for (const auto& [ip, stats] : a.server_ips) {
    const auto it = b.server_ips.find(ip);
    if (it == b.server_ips.end() || stats.service_mask != it->second.service_mask ||
        stats.bytes != it->second.bytes) {
      return "aggregate server IP stats differ";
    }
  }
  if (a.domain_bytes != b.domain_bytes) return "aggregate domain bytes differ";
  if (a.unclassified_domain_bytes != b.unclassified_domain_bytes) {
    return "aggregate unclassified domains differ";
  }
  return {};
}

}  // namespace perfbench
