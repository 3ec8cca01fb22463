// Experiment E20 microbenchmarks (DESIGN.md §16): the signature
// pre-filter and columnar match features, measured at their sources.
//
// Four costs matter:
//   1. signature build throughput — the index-time price of the
//      subsystem (amortized once per schema, persisted across runs);
//   2. the screen itself — EstimatedSimilarity per candidate, which must
//      be orders of magnitude under a matcher invocation for the
//      pre-filter to be worth anything;
//   3. the ensemble on catalog features with a per-query memo (the
//      engine's phase 2) vs the ensemble without a context, which builds
//      standalone features for every pair (the composer's path);
//   4. packed-profile Dice vs hash-map Dice — the innermost loop.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "match/signature.h"
#include "text/ngram.h"

namespace schemr {
namespace {

/// A catalog over the first `n` schemas of the shared fixture (schema i
/// under id i + 1) plus schema 0's standalone query features, as the
/// engine builds them; cached per size (building 1k feature sets takes
/// ~100ms; benches reuse).
struct FeatureSet {
  std::vector<const Schema*> schemas;
  std::shared_ptr<const MatchFeatureCatalog> catalog;
  std::shared_ptr<SchemaFeatures> query;

  const SchemaFeatures& candidate(size_t i) const {
    return *catalog->Find(static_cast<SchemaId>(i + 1));
  }
};

const FeatureSet& SharedFeatures(size_t n) {
  static std::map<size_t, std::unique_ptr<FeatureSet>>* cache =
      new std::map<size_t, std::unique_ptr<FeatureSet>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto set = std::make_unique<FeatureSet>();
    const CorpusFixture& fixture = bench::SharedFixture(n);
    CatalogBuilder builder;
    for (const GeneratedSchema& g : fixture.corpus) {
      set->schemas.push_back(&g.schema);
      Schema numbered = g.schema;
      numbered.set_id(static_cast<SchemaId>(set->schemas.size()));
      builder.Add(numbered);
    }
    set->catalog = builder.Build();
    set->query = BuildSchemaFeatures(*set->schemas[0], FeatureBuildOptions{});
    ComputeSignature(set->query.get(), &set->catalog->df());
    it = cache->emplace(n, std::move(set)).first;
  }
  return *it->second;
}

// --- 1. index-time signature build ------------------------------------------------

void BM_SignatureBuild(benchmark::State& state) {
  const CorpusFixture& fixture =
      bench::SharedFixture(static_cast<size_t>(state.range(0)));
  FeatureBuildOptions options;
  size_t i = 0;
  for (auto _ : state) {
    const Schema& schema = fixture.corpus[i % fixture.corpus.size()].schema;
    ++i;
    auto features = BuildSchemaFeatures(schema, options);
    ComputeSignature(features.get(), nullptr);
    benchmark::DoNotOptimize(features->signature.crc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SignatureBuild)->Arg(1000)->Unit(benchmark::kMicrosecond);

// --- 2. the screen ----------------------------------------------------------------

void BM_SignatureScreen(benchmark::State& state) {
  const FeatureSet& set = SharedFeatures(1000);
  const SchemaSignature& query = set.query->signature;
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sink += EstimatedSimilarity(
        query, set.candidate(i % set.schemas.size()).signature);
    ++i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SignatureScreen)->Unit(benchmark::kNanosecond);

// --- 3. the phase-2 kernel --------------------------------------------------------

void BM_EnsembleStandalone(benchmark::State& state) {
  const FeatureSet& set = SharedFeatures(1000);
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  const Schema& query = *set.schemas[0];
  size_t i = 1;
  for (auto _ : state) {
    const size_t c = 1 + (i % (set.schemas.size() - 1));
    ++i;
    benchmark::DoNotOptimize(ensemble.Match(query, *set.schemas[c]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EnsembleStandalone)->Unit(benchmark::kMicrosecond);

void BM_EnsemblePrepared(benchmark::State& state) {
  const FeatureSet& set = SharedFeatures(1000);
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  const Schema& query = *set.schemas[0];
  // One memo per query, as a scoring worker keeps it: pairs shared by
  // candidates are computed once.
  MatchScratch scratch;
  size_t i = 1;
  for (auto _ : state) {
    const size_t c = 1 + (i % (set.schemas.size() - 1));
    ++i;
    MatchContext context;
    context.query_features = set.query.get();
    context.query_terms = set.query->dictionary.get();
    context.candidate_features = &set.candidate(c);
    context.candidate_terms = &set.catalog->terms();
    context.scratch = &scratch;
    benchmark::DoNotOptimize(
        ensemble.Match(query, *set.schemas[c], nullptr, nullptr, &context));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EnsemblePrepared)->Unit(benchmark::kMicrosecond);

// --- 4. the innermost loop --------------------------------------------------------

void BM_DiceLegacy(benchmark::State& state) {
  NgramProfile a = BuildNgramProfile("patient_record_history", 2, 4);
  NgramProfile b = BuildNgramProfile("patientrecordhistoric", 2, 4);
  double sink = 0.0;
  for (auto _ : state) sink += DiceSimilarity(a, b);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DiceLegacy)->Unit(benchmark::kNanosecond);

void BM_DicePacked(benchmark::State& state) {
  PackedProfile a =
      PackProfile(BuildNgramProfile("patient_record_history", 2, 4));
  PackedProfile b =
      PackProfile(BuildNgramProfile("patientrecordhistoric", 2, 4));
  double sink = 0.0;
  for (auto _ : state) sink += PackedDice(a, b);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DicePacked)->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
