// Concurrent serving experiments (E14, DESIGN.md §9): snapshot-isolated
// search throughput vs thread count, the copy-on-write cost of a corpus
// commit, and the latency of the admission shed path.
//
// Expected shape: search QPS scales with threads up to the physical core
// count because readers share an immutable snapshot and take no lock
// (the paper's interactive-search workload, now concurrent). Ingest pays
// the full index copy per publish -- the price of never blocking a
// reader -- so commit cost grows with corpus size. The shed path does no
// pipeline work and should answer in microseconds even when saturated.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "core/query_parser.h"
#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

/// One lazily built serving corpus shared by every thread of a bench run
/// (magic-static init is thread-safe; the corpus itself is the unit
/// under test for concurrent access).
ServingCorpus& SharedCorpus() {
  static ServingCorpus* corpus = [] {
    CorpusOptions options;
    options.num_schemas = 2000;
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

/// Search QPS against one live corpus from N concurrent threads.
void BM_SnapshotSearch(benchmark::State& state) {
  ServingCorpus& corpus = SharedCorpus();
  static const SearchEngine* engine = new SearchEngine(&SharedCorpus());
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngineOptions options;
  options.extraction.pool_size = 25;
  options.top_k = 10;

  size_t qi = static_cast<size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    auto results = engine->Search(*query, options);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["corpus_version"] = static_cast<double>(corpus.version());
}
BENCHMARK(BM_SnapshotSearch)->ThreadRange(1, 8)->UseRealTime();

/// Same workload, but one of the threads ingests continuously: measures
/// how much live commits cost the readers (they should barely notice --
/// writers swap snapshots, readers keep the old one).
void BM_SnapshotSearchWhileIngest(benchmark::State& state) {
  ServingCorpus& corpus = SharedCorpus();
  static const SearchEngine* engine = new SearchEngine(&SharedCorpus());
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngineOptions options;
  options.extraction.pool_size = 25;

  if (state.thread_index() == 0) {
    // Writer thread: back-to-back ingests for the whole measurement.
    size_t i = 0;
    for (auto _ : state) {
      CorpusOptions one;
      one.num_schemas = 1;
      one.seed = 977 + i;
      auto generated = GenerateCorpus(one);
      auto id = corpus.Ingest(std::move(generated.front().schema));
      if (!id.ok()) state.SkipWithError("ingest failed");
      auto removed = corpus.Remove(*id);  // keep the corpus size stable
      if (!removed.ok()) state.SkipWithError("remove failed");
      ++i;
    }
  } else {
    size_t qi = static_cast<size_t>(state.thread_index()) * 7;
    for (auto _ : state) {
      auto query = ParseQuery(workload[qi % workload.size()].keywords);
      ++qi;
      auto results = engine->Search(*query, options);
      if (!results.ok()) state.SkipWithError("search failed");
      benchmark::DoNotOptimize(results->size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotSearchWhileIngest)->Threads(2)->Threads(4)->UseRealTime();

/// The copy-on-write commit itself: one ingest+remove pair (two snapshot
/// publications) against a corpus of `range(0)` schemas.
void BM_CorpusCommit(benchmark::State& state) {
  CorpusOptions options;
  options.num_schemas = static_cast<size_t>(state.range(0));
  options.seed = 20090629;
  auto fixture = CorpusFixture::Build(options);
  if (!fixture.ok()) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ServingCorpus* corpus = fixture->serving.get();
  CorpusOptions one;
  one.num_schemas = 1;
  one.seed = 41;
  auto extra = GenerateCorpus(one);
  for (auto _ : state) {
    auto id = corpus->Ingest(extra.front().schema);
    if (!id.ok()) state.SkipWithError("ingest failed");
    auto removed = corpus->Remove(*id);
    if (!removed.ok()) state.SkipWithError("remove failed");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
  state.counters["corpus"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CorpusCommit)->Arg(100)->Arg(1000)->Arg(5000);

/// Latency of a shed response: admission refuses before any pipeline
/// work, so overloaded clients get their retry hint almost for free.
void BM_ShedPathLatency(benchmark::State& state) {
  static SchemrService* service = [] {
    auto* s = new SchemrService(&SharedCorpus());
    ServingOptions serving;
    serving.executor.num_workers = 1;
    serving.executor.queue_capacity = 1;
    // A zero queue bound sheds every request: the bench measures pure
    // refusal latency, not pipeline time.
    serving.admission.max_queue_depth = 0;
    if (!s->StartServing(serving).ok()) {
      std::fprintf(stderr, "StartServing failed\n");
      std::abort();
    }
    return s;
  }();
  SearchRequest request;
  request.keywords = "customer order lineitem";
  for (auto _ : state) {
    std::string xml = service->HandleSearchXml(request, 1.0);
    benchmark::DoNotOptimize(xml.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ShedPathLatency)->ThreadRange(1, 4)->UseRealTime();

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
