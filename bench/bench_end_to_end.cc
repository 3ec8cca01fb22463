// Experiments F3 + E8 (DESIGN.md): the full three-phase pipeline of
// Fig. 3, end to end -- "efficiently search ... large schema
// repositories".
//
// Measures complete query latency (candidate extraction → matcher
// ensemble → tightness-of-fit → ranking) against corpus size and
// candidate-pool size, plus the per-phase breakdown at the default
// configuration. Expected shape: total latency is dominated by the match
// phase and scales linearly with the candidate pool, while corpus size
// mainly affects phase 1 (mildly).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/query_parser.h"
#include "core/search_engine.h"

namespace schemr {
namespace {

void BM_EndToEndSearch(benchmark::State& state) {
  const CorpusFixture& fixture =
      bench::SharedFixture(static_cast<size_t>(state.range(0)));
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngine engine(fixture.serving.get());
  SearchEngineOptions options;
  options.extraction.pool_size = 50;

  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    auto results = engine.Search(*query, options);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["corpus"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EndToEndSearch)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndPoolSweep(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(10000);
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngine engine(fixture.serving.get());
  SearchEngineOptions options;
  options.extraction.pool_size = static_cast<size_t>(state.range(0));

  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    auto results = engine.Search(*query, options);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
  }
  state.counters["pool"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EndToEndPoolSweep)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Per-phase breakdown: phase 1 alone, phases 1-2, phases 1-3.
void BM_PhaseBreakdown(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(10000);
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngine engine(fixture.serving.get());
  SearchEngineOptions options;
  options.enable_matching = state.range(0) >= 1;
  options.enable_tightness = state.range(0) >= 2;

  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    auto results = engine.Search(*query, options);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
  }
  state.SetLabel(state.range(0) == 0   ? "phase1_only"
                 : state.range(0) == 1 ? "phase1+matching"
                                       : "full_pipeline");
}
BENCHMARK(BM_PhaseBreakdown)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

// Fragment queries: the query graph carries structure, phase 2 matrices
// get more rows.
void BM_EndToEndFragmentQuery(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(10000);
  SearchEngine engine(fixture.serving.get());
  auto query = ParseQuery(
      "diagnosis",
      "CREATE TABLE patient (height DOUBLE, gender VARCHAR(8), "
      "date_of_birth DATE, village VARCHAR(40));");
  if (!query.ok()) {
    state.SkipWithError("query parse failed");
    return;
  }
  for (auto _ : state) {
    auto results = engine.Search(*query);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
  }
}
BENCHMARK(BM_EndToEndFragmentQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
