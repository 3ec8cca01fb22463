// Tests for the observability subsystem: registry semantics, percentile
// math, exposition golden strings and Prometheus conformance checking,
// span nesting, the log-sink bridge, the lock-free increment path under
// threads, windowed telemetry (snapshot ring + window math), tail-based
// trace retention, and the flat-JSON emitters every /statusz is written
// with.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/log_bridge.h"
#include "obs/metrics.h"
#include "obs/replay.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace schemr {
namespace {

TEST(MetricsTest, CounterSemantics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total", "a counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  // Same name returns the same object.
  EXPECT_EQ(registry.GetCounter("c_total"), c);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(MetricsTest, GaugeSemantics) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  g->Set(7.5);
  EXPECT_DOUBLE_EQ(g->Value(), 7.5);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 5.0);
  registry.Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  Histogram h({0.1, 1.0, 10.0});
  h.Observe(0.05);   // bucket 0
  h.Observe(0.1);    // le=0.1 is inclusive → bucket 0
  h.Observe(0.5);    // bucket 1
  h.Observe(100.0);  // +Inf bucket
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 100.65);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 0u);
  EXPECT_EQ(snap.buckets[3], 1u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
}

TEST(MetricsTest, PercentileMath) {
  Histogram h({1.0, 2.0, 4.0});
  // 100 observations uniformly in (0, 1]: all land in the first bucket.
  for (int i = 1; i <= 100; ++i) h.Observe(i / 100.0);
  HistogramSnapshot snap = h.Snapshot();
  // Interpolation within [0, 1]: p50 ≈ 0.5, p99 ≈ 0.99.
  EXPECT_NEAR(snap.Quantile(0.50), 0.5, 0.02);
  EXPECT_NEAR(snap.Quantile(0.99), 0.99, 0.02);

  Histogram spread({1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) spread.Observe(0.5);  // first bucket
  for (int i = 0; i < 50; ++i) spread.Observe(3.0);  // third bucket
  HistogramSnapshot s2 = spread.Snapshot();
  EXPECT_LE(s2.Quantile(0.25), 1.0);
  EXPECT_GT(s2.Quantile(0.75), 2.0);
  EXPECT_LE(s2.Quantile(0.75), 4.0);

  // Empty histogram and clamping.
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
  EXPECT_GE(snap.Quantile(2.0), snap.Quantile(1.0));
}

TEST(MetricsTest, CollectIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zz_total");
  registry.GetGauge("aa");
  registry.GetHistogram("mm_seconds");
  auto snaps = registry.Collect();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "aa");
  EXPECT_EQ(snaps[1].name, "mm_seconds");
  EXPECT_EQ(snaps[2].name, "zz_total");
}

TEST(ExpositionTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "Total requests.")->Increment(3);
  registry.GetGauge("pool_size")->Set(12);
  Histogram* h = registry.GetHistogram("latency_seconds", "Latency.",
                                       std::vector<double>{0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);

  const char* expected =
      "# HELP latency_seconds Latency.\n"
      "# TYPE latency_seconds histogram\n"
      "latency_seconds_bucket{le=\"0.1\"} 1\n"
      "latency_seconds_bucket{le=\"1\"} 2\n"
      "latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "latency_seconds_sum 5.55\n"
      "latency_seconds_count 3\n"
      "# TYPE pool_size gauge\n"
      "pool_size 12\n"
      "# HELP requests_total Total requests.\n"
      "# TYPE requests_total counter\n"
      "requests_total 3\n";
  EXPECT_EQ(ToPrometheusText(registry), expected);
}

TEST(ExpositionTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(2);
  registry.GetGauge("pool_size")->Set(1.5);
  registry.GetHistogram("lat_seconds", "", std::vector<double>{1.0})
      ->Observe(0.5);

  const char* expected =
      "{\n"
      "  \"lat_seconds\": {\"count\": 1, \"sum\": 0.5, \"p50\": 0.5, "
      "\"p95\": 0.95, \"p99\": 0.99, \"buckets\": "
      "[{\"le\": 1, \"count\": 1}, {\"le\": \"+Inf\", \"count\": 0}]},\n"
      "  \"pool_size\": 1.5,\n"
      "  \"requests_total\": 2\n"
      "}\n";
  EXPECT_EQ(ToJson(registry), expected);
}

TEST(TraceTest, SpanNesting) {
  SearchTrace trace;
  {
    TraceSpan root(&trace, "search");
    {
      TraceSpan child(&trace, "phase1");
      child.Annotate("pool_size", static_cast<uint64_t>(50));
    }
    trace.AddSpan("phase2", 0.25);
    size_t grand = trace.AddSpan("matcher:name", 0.1, 1);
    (void)grand;
  }
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "search");
  EXPECT_EQ(spans[0].parent, SearchTrace::kNoParent);
  EXPECT_EQ(spans[1].name, "phase1");
  EXPECT_EQ(spans[1].parent, 0u);
  ASSERT_EQ(spans[1].annotations.size(), 1u);
  EXPECT_EQ(spans[1].annotations[0].key, "pool_size");
  EXPECT_EQ(spans[1].annotations[0].value, "50");
  EXPECT_EQ(spans[2].parent, 0u);  // added while root still open
  EXPECT_DOUBLE_EQ(spans[2].seconds, 0.25);
  EXPECT_EQ(spans[3].parent, 1u);  // explicit parent
  // The RAII spans measured real elapsed time.
  EXPECT_GE(spans[0].seconds, spans[1].seconds);

  EXPECT_EQ(trace.ChildrenOf(SearchTrace::kNoParent),
            (std::vector<size_t>{0}));
  EXPECT_EQ(trace.ChildrenOf(0), (std::vector<size_t>{1, 2}));

  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("search"), std::string::npos);
  EXPECT_NE(rendered.find("  phase1"), std::string::npos);
  EXPECT_NE(rendered.find("pool_size=50"), std::string::npos);
}

TEST(TraceTest, NullTraceIsNoop) {
  TraceSpan span(nullptr, "ignored");
  span.Annotate("key", static_cast<uint64_t>(1));
  span.End();  // must not crash
}

TEST(MetricsTest, ConcurrentCounterIncrements) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hits_total");
  Histogram* hist = registry.GetHistogram("obs_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(1e-4);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(snap.sum, kThreads * kPerThread * 1e-4, 1e-6 * kThreads *
                                                          kPerThread);
}

TEST(ScopedTimerTest, ReportsIntoHistogramOnDestruction) {
  Histogram h(Histogram::DefaultLatencyBounds());
  {
    ScopedTimer<Histogram> timer(&h);
  }
  EXPECT_EQ(h.Count(), 1u);
  {
    ScopedTimer<Histogram> timer(&h);
    timer.Stop();
    timer.Stop();  // idempotent
  }
  EXPECT_EQ(h.Count(), 2u);
  { ScopedTimer<Histogram> null_timer(nullptr); }
  EXPECT_EQ(h.Count(), 2u);
}

TEST(LogBridgeTest, CountsWarningsIntoGlobalRegistry) {
  InstallMetricsLogSink();
  Counter* warnings = MetricsRegistry::Global().GetCounter(
      "schemr_log_warnings_total");
  uint64_t before = warnings->Value();
  SCHEMR_LOG(kWarning) << "bridge test warning";
  EXPECT_EQ(warnings->Value(), before + 1);
  SetLogSink(nullptr);  // restore stderr default for other tests
}

// --- Prometheus exposition conformance (DESIGN.md §12) ----------------------

TEST(ConformanceTest, RealExpositionOutputPasses) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "Total requests.")->Increment(3);
  registry.GetGauge("pool_size")->Set(12);
  Histogram* h = registry.GetHistogram("latency_seconds", "Latency.",
                                       std::vector<double>{0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  Status status = CheckPrometheusText(ToPrometheusText(registry));
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ConformanceTest, GlobalRegistryExpositionPasses) {
  // The registry every subsystem reports into must always render a body a
  // scraper accepts, whatever metrics happen to be registered by the time
  // this test runs.
  Status status =
      CheckPrometheusText(ToPrometheusText(MetricsRegistry::Global()));
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ConformanceTest, EmptyBodyPasses) {
  EXPECT_TRUE(CheckPrometheusText("").ok());
  EXPECT_TRUE(CheckPrometheusText("\n\n").ok());
}

TEST(ConformanceTest, SampleWithoutTypeFails) {
  Status status = CheckPrometheusText("orphan_total 3\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("TYPE"), std::string::npos) << status;
}

TEST(ConformanceTest, DuplicateTypeFails) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\n"
                                   "a 1\n"
                                   "# TYPE a counter\n"
                                   "a 2\n")
                   .ok());
}

TEST(ConformanceTest, BadMetricNameFails) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE 9lives counter\n"
                                   "9lives 1\n")
                   .ok());
}

TEST(ConformanceTest, UnknownTypeKeywordFails) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE a thingy\na 1\n").ok());
}

TEST(ConformanceTest, CounterMustBeFiniteNonNegativeInteger) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\na -1\n").ok());
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\na 1.5\n").ok());
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\na +Inf\n").ok());
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\na NaN\n").ok());
  EXPECT_TRUE(CheckPrometheusText("# TYPE a counter\na 7\n").ok());
}

TEST(ConformanceTest, GaugeMayBeNegativeOrSpecial) {
  EXPECT_TRUE(CheckPrometheusText("# TYPE g gauge\ng -1.5\n").ok());
  EXPECT_TRUE(CheckPrometheusText("# TYPE g gauge\ng +Inf\n").ok());
  EXPECT_TRUE(CheckPrometheusText("# TYPE g gauge\ng NaN\n").ok());
}

TEST(ConformanceTest, UnparsableValueFails) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE g gauge\ng twelve\n").ok());
}

TEST(ConformanceTest, LabelRules) {
  // Well-formed labels, escapes, and a trailing comma are all legal.
  EXPECT_TRUE(CheckPrometheusText("# TYPE a counter\n"
                                  "a{x=\"y\",z=\"a\\\\b\\\"c\\nd\",} 1\n")
                  .ok());
  // Unquoted label value.
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\na{x=y} 1\n").ok());
  // Unsupported escape sequence.
  EXPECT_FALSE(
      CheckPrometheusText("# TYPE a counter\na{x=\"\\t\"} 1\n").ok());
  // Label name may not contain a colon (metric names may).
  EXPECT_FALSE(
      CheckPrometheusText("# TYPE a counter\na{x:y=\"v\"} 1\n").ok());
}

TEST(ConformanceTest, HelpEscapeRules) {
  EXPECT_TRUE(CheckPrometheusText("# HELP a back\\\\slash and \\n line\n"
                                  "# TYPE a counter\n"
                                  "a 1\n")
                  .ok());
  EXPECT_FALSE(CheckPrometheusText("# HELP a bad \\t escape\n"
                                   "# TYPE a counter\n"
                                   "a 1\n")
                   .ok());
}

TEST(ConformanceTest, HistogramBucketsMustBeCumulative) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"0.1\"} 5\n"
                                   "h_bucket{le=\"1\"} 3\n"
                                   "h_bucket{le=\"+Inf\"} 5\n"
                                   "h_sum 1\n"
                                   "h_count 5\n")
                   .ok());
}

TEST(ConformanceTest, HistogramMustEndInInfBucket) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"0.1\"} 1\n"
                                   "h_bucket{le=\"1\"} 2\n"
                                   "h_sum 1\n"
                                   "h_count 2\n")
                   .ok());
}

TEST(ConformanceTest, HistogramCountMustMatchInfBucket) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_sum 1\n"
                                   "h_count 4\n")
                   .ok());
}

TEST(ConformanceTest, HistogramMustCarrySum) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"+Inf\"} 1\n"
                                   "h_count 1\n")
                   .ok());
}

TEST(ConformanceTest, HistogramBucketRequiresLeLabel) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE h histogram\n"
                                   "h_bucket 1\n"
                                   "h_sum 1\n"
                                   "h_count 1\n")
                   .ok());
}

TEST(ConformanceTest, TypeAfterSamplesFails) {
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\n"
                                   "a 1\n"
                                   "# TYPE b counter\n"
                                   "a 2\n"
                                   "# TYPE a gauge\n")
                   .ok());
}

TEST(ConformanceTest, ErrorNamesOffendingLine) {
  Status status = CheckPrometheusText("# TYPE good counter\n"
                                      "good 1\n"
                                      "orphan 2\n");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 3"), std::string::npos) << status;
}

// --- windowed telemetry (obs/telemetry.h) -----------------------------------

std::shared_ptr<const MetricsSample> MakeSample(const MetricsRegistry& registry,
                                                double when) {
  auto sample = std::make_shared<MetricsSample>();
  sample->monotonic_seconds = when;
  sample->metrics = registry.Collect();
  return sample;
}

TEST(TelemetryRingTest, NewestAndSizeTrackPushes) {
  MetricsSnapshotRing ring(4);
  EXPECT_EQ(ring.Newest(), nullptr);
  EXPECT_EQ(ring.size(), 0u);

  MetricsRegistry registry;
  for (int i = 1; i <= 6; ++i) {
    ring.Push(MakeSample(registry, i));
    EXPECT_EQ(ring.Newest()->monotonic_seconds, i);
  }
  // Capacity 4: pushes 5 and 6 evicted 1 and 2.
  EXPECT_EQ(ring.size(), 4u);
}

TEST(TelemetryRingTest, WindowAnchorPicksNewestOldEnoughSample) {
  MetricsSnapshotRing ring(16);
  MetricsRegistry registry;
  EXPECT_EQ(ring.WindowAnchor(1.0), nullptr);  // empty
  ring.Push(MakeSample(registry, 10.0));
  EXPECT_EQ(ring.WindowAnchor(1.0), nullptr);  // one sample: no window yet
  for (double t : {11.0, 12.0, 13.0, 14.0}) {
    ring.Push(MakeSample(registry, t));
  }
  // Newest is t=14; a 2s window wants the newest sample at age >= 2.
  auto anchor = ring.WindowAnchor(2.0);
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(anchor->monotonic_seconds, 12.0);
  // Asking for more history than retained falls back to the oldest.
  EXPECT_EQ(ring.WindowAnchor(100.0)->monotonic_seconds, 10.0);
}

TEST(TelemetryWindowTest, CounterDeltasBecomeRates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reqs_total");
  c->Increment(10);
  auto older = MakeSample(registry, 100.0);
  c->Increment(30);
  auto newer = MakeSample(registry, 110.0);

  WindowedView view = ComputeWindow(*older, *newer);
  EXPECT_DOUBLE_EQ(view.window_seconds, 10.0);
  const WindowedMetric* m = view.Find("reqs_total");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->rate_per_second, 3.0);  // 30 events / 10 s
}

TEST(TelemetryWindowTest, GaugeReportsNewestValue) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("depth");
  g->Set(5);
  auto older = MakeSample(registry, 0.0);
  g->Set(2);
  auto newer = MakeSample(registry, 1.0);
  WindowedView view = ComputeWindow(*older, *newer);
  const WindowedMetric* m = view.Find("depth");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->gauge_value, 2.0);
}

TEST(TelemetryWindowTest, HistogramDeltaPercentilesIgnoreOldObservations) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat_seconds", "",
                                       std::vector<double>{0.01, 0.1, 1.0});
  // Old, slow traffic before the window.
  for (int i = 0; i < 100; ++i) h->Observe(0.5);
  auto older = MakeSample(registry, 0.0);
  // Fast traffic inside the window: lifetime percentiles would still be
  // dominated by the 0.5s observations; the window must not be.
  for (int i = 0; i < 100; ++i) h->Observe(0.005);
  auto newer = MakeSample(registry, 60.0);

  WindowedView view = ComputeWindow(*older, *newer);
  const WindowedMetric* m = view.Find("lat_seconds");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->delta_count, 100u);
  EXPECT_LE(m->p99, 0.01);  // every windowed observation is in bucket one
}

TEST(TelemetryWindowTest, ResetBetweenSamplesClampsToZero) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reqs_total");
  c->Increment(50);
  auto older = MakeSample(registry, 0.0);
  registry.Reset();
  c->Increment(2);
  auto newer = MakeSample(registry, 10.0);
  WindowedView view = ComputeWindow(*older, *newer);
  const WindowedMetric* m = view.Find("reqs_total");
  ASSERT_NE(m, nullptr);
  // Delta is 2 - 50 < 0: clamp, don't report a negative rate.
  EXPECT_DOUBLE_EQ(m->rate_per_second, 0.0);
}

TEST(TelemetryWindowTest, MetricRegisteredMidWindowIsRatedOverFullWindow) {
  MetricsRegistry registry;
  auto older = MakeSample(registry, 0.0);
  registry.GetCounter("late_total")->Increment(20);
  auto newer = MakeSample(registry, 10.0);
  WindowedView view = ComputeWindow(*older, *newer);
  const WindowedMetric* m = view.Find("late_total");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->rate_per_second, 2.0);
}

TEST(TelemetrySamplerTest, SampleNowFeedsWindow) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reqs_total");
  TelemetryOptions options;
  options.sample_interval_seconds = 3600;  // never fires on its own
  TelemetrySampler sampler(options, &registry);

  EXPECT_EQ(sampler.Window(60).window_seconds, 0.0);  // no samples yet
  c->Increment(5);
  sampler.SampleNow();
  EXPECT_EQ(sampler.Window(60).window_seconds, 0.0);  // one sample: no window
  c->Increment(5);
  auto newest = sampler.SampleNow();
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->Find("reqs_total")->counter_value, 10u);

  WindowedView view = sampler.Window(60);
  const WindowedMetric* m = view.Find("reqs_total");
  ASSERT_NE(m, nullptr);
  // The two samples are microseconds apart; just check the delta landed.
  EXPECT_GT(m->rate_per_second, 0.0);
  EXPECT_GE(sampler.UptimeSeconds(), 0.0);
}

TEST(TelemetrySamplerTest, StartStopIdempotent) {
  MetricsRegistry registry;
  TelemetryOptions options;
  options.sample_interval_seconds = 0.001;
  TelemetrySampler sampler(options, &registry);
  sampler.Start();
  sampler.Start();  // no-op
  // The background thread publishes a sample almost immediately.
  for (int i = 0; i < 1000 && sampler.Newest() == nullptr; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(sampler.Newest(), nullptr);
  sampler.Stop();
  sampler.Stop();  // no-op
}

// --- tail-based trace retention ---------------------------------------------

RetainedTrace MakeTrace(const std::string& outcome, double seconds,
                        bool sampled = false) {
  RetainedTrace trace;
  trace.timestamp_micros = 1700000000000000ull;
  trace.fingerprint = 0x1234;
  trace.outcome = outcome;
  trace.total_seconds = seconds;
  trace.sampled = sampled;
  if (sampled) trace.spans = "search total=1ms\n";
  return trace;
}

TEST(TraceRetentionTest, ShouldSampleIsDeterministicOneInN) {
  TraceRetentionOptions options;
  options.sample_every_n = 4;
  TraceRetention retention(options);
  int sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (retention.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 10);

  options.sample_every_n = 0;  // disabled
  TraceRetention off(options);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(off.ShouldSample());
}

TEST(TraceRetentionTest, ClassifiesByOutcomeAndLatency) {
  TraceRetentionOptions options;
  options.slow_threshold_seconds = 0.25;
  TraceRetention retention(options);
  retention.Retain(MakeTrace("ok", 0.001, /*sampled=*/true));
  retention.Retain(MakeTrace("ok", 0.5));             // slow
  retention.Retain(MakeTrace("degraded", 0.01));
  retention.Retain(MakeTrace("error", 0.01));
  retention.Retain(MakeTrace("shed_queue_full", 0.0));
  retention.Retain(MakeTrace("shed_deadline", 0.0));
  retention.Retain(MakeTrace("cancelled", 0.0));

  std::vector<RetainedTrace> all = retention.Snapshot();
  int counts[5] = {0, 0, 0, 0, 0};
  for (const auto& t : all) counts[static_cast<int>(t.category)]++;
  EXPECT_EQ(counts[static_cast<int>(TraceCategory::kRecent)], 1);
  EXPECT_EQ(counts[static_cast<int>(TraceCategory::kSlow)], 1);
  EXPECT_EQ(counts[static_cast<int>(TraceCategory::kDegraded)], 1);
  EXPECT_EQ(counts[static_cast<int>(TraceCategory::kError)], 1);
  EXPECT_EQ(counts[static_cast<int>(TraceCategory::kShed)], 3);
}

TEST(TraceRetentionTest, HealthyFastUntracedRequestsAreNotRetained) {
  TraceRetention retention;
  retention.Retain(MakeTrace("ok", 0.001, /*sampled=*/false));
  EXPECT_TRUE(retention.Snapshot().empty());
  TraceRetention::Stats stats = retention.GetStats();
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.retained, 0u);
}

TEST(TraceRetentionTest, SlowRingKeepsSlowestNotNewest) {
  TraceRetentionOptions options;
  options.ring_capacity = 3;
  options.slow_threshold_seconds = 0.1;
  TraceRetention retention(options);
  // Offer slow requests in an order where the newest are the fastest.
  for (double s : {0.9, 0.3, 0.5, 0.2, 0.15, 0.11}) {
    retention.Retain(MakeTrace("ok", s));
  }
  std::vector<RetainedTrace> all = retention.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  // Slowest-first, and the three slowest ever offered survive.
  EXPECT_DOUBLE_EQ(all[0].total_seconds, 0.9);
  EXPECT_DOUBLE_EQ(all[1].total_seconds, 0.5);
  EXPECT_DOUBLE_EQ(all[2].total_seconds, 0.3);
}

TEST(TraceRetentionTest, RingsAreBounded) {
  TraceRetentionOptions options;
  options.ring_capacity = 2;
  TraceRetention retention(options);
  for (int i = 0; i < 10; ++i) {
    retention.Retain(MakeTrace("error", 0.01));
  }
  EXPECT_EQ(retention.Snapshot().size(), 2u);
  TraceRetention::Stats stats = retention.GetStats();
  EXPECT_EQ(stats.offered, 10u);
  EXPECT_EQ(stats.retained, 10u);  // all entered; older ones were evicted
}

TEST(TraceRetentionTest, StatsCountSampled) {
  TraceRetention retention;
  retention.Retain(MakeTrace("ok", 0.001, /*sampled=*/true));
  retention.Retain(MakeTrace("error", 0.001, /*sampled=*/false));
  TraceRetention::Stats stats = retention.GetStats();
  EXPECT_EQ(stats.offered, 2u);
  EXPECT_EQ(stats.sampled, 1u);
  EXPECT_EQ(stats.retained, 2u);
}

TEST(TraceRetentionTest, ToJsonCarriesStatsAndTraces) {
  TraceRetention retention;
  RetainedTrace trace = MakeTrace("error", 0.02, /*sampled=*/true);
  trace.spans = "span \"with quotes\"\n";
  retention.Retain(std::move(trace));
  std::string json = retention.ToJson();
  EXPECT_NE(json.find("\"stats\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"traces\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"with quotes\\\""), std::string::npos) << json;
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  std::string out;
  AppendJsonEscaped(&out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

TEST(JsonEmitterTest, EveryValueRoundTripsThroughParseBenchJson) {
  std::string out = "{";
  JsonNum(&out, "zero", 0.0);
  JsonNum(&out, "big", 999999999.0);
  JsonNum(&out, "tenth", 0.1);
  JsonNum(&out, "tiny", -2.5e-7);
  // ParseBenchJson cannot read nan or inf, so they print as 0.
  JsonNum(&out, "nan", std::nan(""));
  JsonNum(&out, "inf", std::numeric_limits<double>::infinity());
  JsonNum(&out, "neg_inf", -std::numeric_limits<double>::infinity());
  JsonStr(&out, "text", "q\"b\\s\nn\rr\tt\x01" "end");
  JsonBool(&out, "flag", true);
  JsonKey(&out, "nested");
  out += '{';
  JsonNum(&out, "after", 7.0);
  out += "}}";

  auto fields = ParseBenchJson(out);
  ASSERT_TRUE(fields.ok()) << fields.status() << "\n" << out;
  EXPECT_EQ(fields->at("zero"), 0.0);
  EXPECT_EQ(fields->at("big"), 999999999.0);
  EXPECT_EQ(fields->at("tenth"), 0.1);
  EXPECT_EQ(fields->at("tiny"), -2.5e-7);
  EXPECT_EQ(fields->at("nan"), 0.0);
  EXPECT_EQ(fields->at("inf"), 0.0);
  EXPECT_EQ(fields->at("neg_inf"), 0.0);
  EXPECT_EQ(fields->count("text"), 0u);  // string values are skipped
  EXPECT_EQ(fields->at("flag"), 1.0);
  EXPECT_EQ(fields->at("nested.after"), 7.0);
  EXPECT_NE(out.find(R"("text":"q\"b\\s\nn\rr\tt\u0001end")"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace schemr
