// Metrics federation (DESIGN.md §15): parse the Prometheus text dialect
// back into snapshots, merge scrapes bucket-wise, and derive fleet
// quantiles that match the bucket-wise merge exactly.

#include "obs/federation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"

namespace schemr {
namespace {

using MetricKind = MetricsRegistry::MetricKind;
using MetricSnapshot = MetricsRegistry::MetricSnapshot;

const MetricSnapshot* Find(const std::vector<MetricSnapshot>& metrics,
                           const std::string& name) {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(FederationParseTest, RoundTripsTheEmittersDialect) {
  MetricsRegistry registry;
  registry.GetCounter("schemr_test_requests_total", "Requests.")
      ->Increment(42);
  registry.GetGauge("schemr_test_in_flight", "In flight.")->Set(3.5);
  Histogram* h =
      registry.GetHistogram("schemr_test_latency_seconds", "Latency.");
  for (double v : {0.0001, 0.004, 0.004, 0.25, 2.0}) h->Observe(v);

  const std::vector<MetricSnapshot> original = registry.Collect();
  auto parsed = ParsePrometheusSnapshots(ToPrometheusText(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const MetricSnapshot& want = original[i];
    const MetricSnapshot& got = (*parsed)[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.help, want.help);
    switch (want.kind) {
      case MetricKind::kCounter:
        EXPECT_EQ(got.counter_value, want.counter_value);
        break;
      case MetricKind::kGauge:
        EXPECT_DOUBLE_EQ(got.gauge_value, want.gauge_value);
        break;
      case MetricKind::kHistogram:
        EXPECT_EQ(got.histogram.bounds, want.histogram.bounds);
        EXPECT_EQ(got.histogram.buckets, want.histogram.buckets);
        EXPECT_EQ(got.histogram.count, want.histogram.count);
        EXPECT_NEAR(got.histogram.sum, want.histogram.sum,
                    1e-6 * (1.0 + want.histogram.sum));
        break;
    }
  }
}

TEST(FederationParseTest, RejectsStructurallyBrokenScrapes) {
  EXPECT_FALSE(ParsePrometheusSnapshots("# TYPE x counter\nx notanumber\n")
                   .ok());
  EXPECT_FALSE(ParsePrometheusSnapshots("# TYPE h histogram\n"
                                        "h_bucket{le=\"0.1\"} 5\n"
                                        "h_bucket{le=\"+Inf\"} 3\n"
                                        "h_sum 1\nh_count 3\n")
                   .ok())
      << "cumulative buckets must be non-decreasing";
  EXPECT_FALSE(ParsePrometheusSnapshots("# TYPE h histogram\n"
                                        "h_bucket{le=\"0.1\"} 5\n"
                                        "h_sum 1\nh_count 5\n")
                   .ok())
      << "histogram without +Inf bucket is incomplete";
}

TEST(FederationParseTest, SkipsUnannouncedAndForeignSeries) {
  auto parsed = ParsePrometheusSnapshots(
      "# some free-form comment\n"
      "orphan_sample 7\n"
      "# TYPE labeled counter\n"
      "labeled{job=\"x\"} 9\n"
      "# TYPE kept counter\n"
      "kept 4\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].name, "kept");
  EXPECT_EQ((*parsed)[0].counter_value, 4u);
}

TEST(FederationParseTest, RejectsNegativeCounters) {
  // A signed value is no counter; read as unsigned it would wrap to
  // 2^64 - 1 and swamp the fleet sum.
  EXPECT_FALSE(ParsePrometheusSnapshots("# TYPE c counter\nc -1\n").ok());
  EXPECT_FALSE(ParsePrometheusSnapshots("# TYPE h histogram\n"
                                        "h_bucket{le=\"+Inf\"} 2\n"
                                        "h_sum 1\nh_count -1\n")
                   .ok());
  auto parsed =
      ParsePrometheusSnapshots("# TYPE c counter\nc 18446744073709551615\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)[0].counter_value, 18446744073709551615ull);
}

TEST(FederationParseTest, RejectsHistogramCountThatDisagreesWithInfBucket) {
  // The checker rejects such a family, so merging it would make the
  // coordinator's own /metrics?merge=fleet fail the checker.
  const std::string scrape =
      "# TYPE h histogram\n"
      "h_bucket{le=\"0.1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 1\nh_count 5\n";
  EXPECT_FALSE(CheckPrometheusText(scrape).ok());
  EXPECT_FALSE(ParsePrometheusSnapshots(scrape).ok());
}

TEST(FederationParseTest, UnescapesHelpText) {
  // Help is kept as the registry holds it, so a scrape that passes
  // through the merge any number of times re-emits the same bytes.
  MetricsRegistry registry;
  registry.GetCounter("c_total", "a\\b\nline two")->Increment(1);
  const std::string scrape = ToPrometheusText(registry.Collect());
  auto parsed = ParsePrometheusSnapshots(scrape);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].help, "a\\b\nline two");
  EXPECT_EQ(ToPrometheusText(*parsed), scrape);
  EXPECT_FALSE(ParsePrometheusSnapshots("# HELP c bad \\t escape\n"
                                        "# TYPE c counter\nc 1\n")
                   .ok());
}

TEST(FederationMergeTest, CountersAndGaugesSumAcrossScrapes) {
  std::vector<std::vector<MetricSnapshot>> scrapes;
  for (uint64_t n : {3u, 5u, 11u}) {
    MetricsRegistry registry;
    registry.GetCounter("schemr_requests_total")->Increment(n);
    registry.GetGauge("schemr_live")->Set(static_cast<double>(n));
    scrapes.push_back(registry.Collect());
  }
  const std::vector<MetricSnapshot> merged = MergeMetricSnapshots(scrapes);
  const MetricSnapshot* counter = Find(merged, "schemr_requests_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->counter_value, 19u);
  const MetricSnapshot* gauge = Find(merged, "schemr_live");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->gauge_value, 19.0);
}

// The acceptance property: fleet percentiles computed from the merged
// histogram equal, EXACTLY, the percentiles of one histogram that saw
// every replica's observations — because shared bucket bounds make the
// bucket-wise sum lossless.
TEST(FederationMergeTest, MergedQuantilesMatchBucketwiseMergeExactly) {
  const std::vector<std::vector<double>> per_replica = {
      {0.0001, 0.002, 0.002, 0.3},
      {0.004, 0.004, 0.05, 1.2, 4.0},
      {0.00005, 0.9},
  };
  Histogram reference(Histogram::DefaultLatencyBounds());
  std::vector<std::vector<MetricSnapshot>> scrapes;
  for (const std::vector<double>& observations : per_replica) {
    MetricsRegistry registry;
    Histogram* h = registry.GetHistogram("schemr_service_search_xml_seconds");
    for (double v : observations) {
      h->Observe(v);
      reference.Observe(v);
    }
    // Round-trip each scrape through the text dialect, exactly as the
    // coordinator's scraper sees it.
    auto parsed = ParsePrometheusSnapshots(ToPrometheusText(registry.Collect()));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    scrapes.push_back(std::move(*parsed));
  }
  const std::vector<MetricSnapshot> merged = MergeMetricSnapshots(scrapes);
  const MetricSnapshot* m = Find(merged, "schemr_service_search_xml_seconds");
  ASSERT_NE(m, nullptr);
  const HistogramSnapshot want = reference.Snapshot();
  EXPECT_EQ(m->histogram.buckets, want.buckets);
  EXPECT_EQ(m->histogram.count, want.count);
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(m->histogram.Quantile(q), want.Quantile(q))
        << "quantile " << q;
  }
}

TEST(FederationMergeTest, BoundsDisagreementDropsTheFamily) {
  MetricsRegistry a;
  a.GetHistogram("schemr_skewed_seconds", "", {0.1, 1.0})->Observe(0.05);
  a.GetCounter("schemr_kept_total")->Increment(1);
  MetricsRegistry b;
  b.GetHistogram("schemr_skewed_seconds", "", {0.2, 2.0})->Observe(0.05);
  b.GetCounter("schemr_kept_total")->Increment(2);
  const std::vector<MetricSnapshot> merged =
      MergeMetricSnapshots({a.Collect(), b.Collect()});
  EXPECT_EQ(Find(merged, "schemr_skewed_seconds"), nullptr)
      << "version-skewed bounds must not be summed wrongly";
  const MetricSnapshot* kept = Find(merged, "schemr_kept_total");
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->counter_value, 3u);
}

TEST(FederationMergeTest, DeadReplicaIsJustAMissingScrape) {
  MetricsRegistry alive;
  alive.GetCounter("schemr_requests_total")->Increment(7);
  // The caller skips unreachable replicas; the merge only ever sees the
  // scrapes that parsed.
  const std::vector<MetricSnapshot> merged =
      MergeMetricSnapshots({alive.Collect()});
  const MetricSnapshot* counter = Find(merged, "schemr_requests_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->counter_value, 7u);
  EXPECT_TRUE(MergeMetricSnapshots({}).empty());
}

TEST(FederationRenameTest, PrefixesFleetAndStaysSortedAndEmittable) {
  MetricsRegistry registry;
  registry.GetCounter("schemr_zzz_total", "Z.")->Increment(1);
  registry.GetHistogram("schemr_service_search_xml_seconds", "Latency.")
      ->Observe(0.01);
  registry.GetCounter("unprefixed_total")->Increment(2);
  std::vector<MetricSnapshot> renamed = RenameForFleet(registry.Collect());
  ASSERT_EQ(renamed.size(), 3u);
  EXPECT_NE(Find(renamed, "schemr_fleet_zzz_total"), nullptr);
  EXPECT_NE(Find(renamed, "schemr_fleet_service_search_xml_seconds"), nullptr);
  EXPECT_NE(Find(renamed, "schemr_fleet_unprefixed_total"), nullptr);
  for (size_t i = 1; i < renamed.size(); ++i) {
    EXPECT_LT(renamed[i - 1].name, renamed[i].name);
  }
  // The renamed series must re-emit as conformant exposition text.
  const Status checked = CheckPrometheusText(ToPrometheusText(renamed));
  EXPECT_TRUE(checked.ok()) << checked.ToString();
}

}  // namespace
}  // namespace schemr
