// Introspection-plane overhead experiment (E17, DESIGN.md §12): what the
// always-on telemetry sampler and tail-based trace retention cost the
// serving path, plus the isolated price of each primitive (one registry
// snapshot, the window math, the per-request sampling decision, one
// retention offer, one /statusz render).
//
// Expected shape: ShouldSample is one relaxed fetch_add (~ns) and an
// unsampled request pays nothing else, so end-to-end p50 with the
// introspection plane live should sit within 1% of the bare serving path
// (the E17 acceptance bar). The sampler's registry Collect runs once per
// interval on its own thread — it shows up here as a per-call cost, not a
// per-request one. Endpoint renders are scrape-rate work (O(1/s)), shown
// to bound what a dashboard costs the process.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "core/serving_corpus.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

constexpr size_t kSchemas = 2000;

/// One lazily built serving corpus shared by the serving-path benches.
ServingCorpus& SharedCorpus() {
  static ServingCorpus* corpus = [] {
    CorpusOptions options;
    options.num_schemas = kSchemas;
    options.seed = 20090629;
    auto fixture = CorpusFixture::Build(options);
    if (!fixture.ok()) {
      std::fprintf(stderr, "fixture build failed: %s\n",
                   fixture.status().ToString().c_str());
      std::abort();
    }
    return fixture->serving.release();
  }();
  return *corpus;
}

SchemrService* ServingService(uint32_t sample_every_n, int introspection_port) {
  auto* service = new SchemrService(&SharedCorpus());
  ServingOptions serving;
  serving.executor.num_workers = 2;
  serving.trace_retention.sample_every_n = sample_every_n;
  serving.introspection_port = introspection_port;
  if (!service->StartServing(serving).ok()) {
    std::fprintf(stderr, "StartServing failed\n");
    std::abort();
  }
  return service;
}

void RunWorkload(benchmark::State& state, const SchemrService& service) {
  const auto& workload = bench::SharedWorkload(0.0);
  size_t qi = 0;
  for (auto _ : state) {
    SearchRequest request;
    const auto& query = workload[qi++ % workload.size()];
    request.keywords = query.keywords;
    request.candidate_pool = 25;
    const std::string xml = service.HandleSearchXml(request, 5.0);
    benchmark::DoNotOptimize(xml.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/// E16 shape, re-measured here as the baseline: serving path with trace
/// sampling disabled and no listener.
void BM_SearchXml_IntrospectionOff(benchmark::State& state) {
  static SchemrService* service = ServingService(/*sample_every_n=*/0,
                                                 /*introspection_port=*/-1);
  RunWorkload(state, *service);
}
BENCHMARK(BM_SearchXml_IntrospectionOff)->Unit(benchmark::kMicrosecond);

/// The shipped default: sampler thread live, tail sampling at 1/16, the
/// HTTP listener bound (idle — scrape cost is measured separately).
void BM_SearchXml_IntrospectionOn(benchmark::State& state) {
  static SchemrService* service = ServingService(/*sample_every_n=*/16,
                                                 /*introspection_port=*/0);
  RunWorkload(state, *service);
}
BENCHMARK(BM_SearchXml_IntrospectionOn)->Unit(benchmark::kMicrosecond);

/// Worst case: every request carries a live SearchTrace.
void BM_SearchXml_TraceEverything(benchmark::State& state) {
  static SchemrService* service = ServingService(/*sample_every_n=*/1,
                                                 /*introspection_port=*/0);
  RunWorkload(state, *service);
}
BENCHMARK(BM_SearchXml_TraceEverything)->Unit(benchmark::kMicrosecond);

/// One registry snapshot into the ring — the sampler thread's per-interval
/// cost, against the real (fully populated) global registry.
void BM_TelemetrySampleNow(benchmark::State& state) {
  TelemetryOptions options;
  options.sample_interval_seconds = 3600;  // never fires on its own
  TelemetrySampler sampler(options);
  for (auto _ : state) {
    auto sample = sampler.SampleNow();
    benchmark::DoNotOptimize(sample.get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetrySampleNow)->Unit(benchmark::kMicrosecond);

/// The 1m/5m/15m window math over two real registry samples — what one
/// /statusz render spends beyond string formatting.
void BM_ComputeWindow(benchmark::State& state) {
  TelemetryOptions options;
  options.sample_interval_seconds = 3600;
  TelemetrySampler sampler(options);
  auto older = sampler.SampleNow();
  auto newer = sampler.SampleNow();
  for (auto _ : state) {
    WindowedView view = ComputeWindow(*older, *newer);
    benchmark::DoNotOptimize(view.metrics.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ComputeWindow)->Unit(benchmark::kMicrosecond);

/// The per-request sampling decision — the only telemetry cost an
/// unsampled request pays.
void BM_TraceShouldSample(benchmark::State& state) {
  TraceRetention retention;
  for (auto _ : state) {
    bool sample = retention.ShouldSample();
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceShouldSample)->Unit(benchmark::kNanosecond);

/// One retention offer for an interesting (retained) outcome: the
/// classification plus a ring insert under the mutex.
void BM_TraceRetain(benchmark::State& state) {
  TraceRetention retention;
  RetainedTrace trace;
  trace.timestamp_micros = 1700000000000000ull;
  trace.fingerprint = 0xabcdef;
  trace.outcome = "degraded";
  trace.total_seconds = 0.012;
  for (auto _ : state) {
    retention.Retain(trace);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRetain)->Unit(benchmark::kNanosecond);

/// A full /statusz render (registry windows + JSON formatting): the cost
/// of one dashboard refresh or scrape.
void BM_StatuszRender(benchmark::State& state) {
  static SchemrService* service = ServingService(/*sample_every_n=*/16,
                                                 /*introspection_port=*/-1);
  service->telemetry()->SampleNow();
  service->telemetry()->SampleNow();
  for (auto _ : state) {
    std::string body = service->StatuszJson();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StatuszRender)->Unit(benchmark::kMicrosecond);

/// A full /metrics render for comparison (the Prometheus scrape body).
void BM_MetricsRender(benchmark::State& state) {
  static SchemrService* service = ServingService(/*sample_every_n=*/16,
                                                 /*introspection_port=*/-1);
  for (auto _ : state) {
    std::string body = service->MetricsText();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsRender)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
