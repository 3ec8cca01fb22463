// Experiments F4 + E6 (DESIGN.md): tightness-of-fit cost and quality.
//
// The cost side: TOF iterates over all anchor entities for every matched
// element, so its cost grows with #entities × #matched elements. This
// bench sweeps both. The quality side (does TOF improve ranking?) lives
// in bench_quality_ablation; here a micro-table also reports the Fig. 4
// example value as a sanity anchor.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/tightness_of_fit.h"
#include "match/context_matcher.h"
#include "match/ensemble.h"
#include "match/name_matcher.h"
#include "match/structure_matcher.h"
#include "match/type_matcher.h"
#include "schema/entity_graph.h"
#include "schema/schema_builder.h"
#include "util/rng.h"

namespace schemr {
namespace {

/// Schema with `entities` FK-chained entities of `attrs` attributes each.
Schema MakeChainSchema(size_t entities, size_t attrs) {
  Schema schema("chain");
  ElementId previous = kNoElement;
  for (size_t e = 0; e < entities; ++e) {
    ElementId entity = schema.AddEntity("entity" + std::to_string(e));
    for (size_t a = 0; a < attrs; ++a) {
      ElementId attr = schema.AddAttribute(
          "attr" + std::to_string(e) + "_" + std::to_string(a), entity);
      if (a == 0 && previous != kNoElement) {
        schema.AddForeignKey(attr, previous);
      }
    }
    previous = entity;
  }
  return schema;
}

/// Random similarity matrix with `fraction` of elements matched.
SimilarityMatrix MakeSimilarity(const Schema& schema, double fraction,
                                uint64_t seed) {
  Rng rng(seed);
  SimilarityMatrix m(4, schema.size());
  for (ElementId e = 0; e < schema.size(); ++e) {
    if (rng.NextBool(fraction)) {
      m.set(rng.NextBelow(4), e, 0.5 + 0.5 * rng.NextDouble());
    }
  }
  return m;
}

void BM_TightnessVsEntities(benchmark::State& state) {
  Schema schema = MakeChainSchema(static_cast<size_t>(state.range(0)), 6);
  SimilarityMatrix m = MakeSimilarity(schema, 0.5, 11);
  const std::vector<uint32_t> component =
      ComponentsByElement(EntityGraph(schema), schema.size());
  for (auto _ : state) {
    TightnessResult result = ComputeTightnessOfFit(schema, component, m);
    benchmark::DoNotOptimize(result.score);
  }
  state.counters["entities"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TightnessVsEntities)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_TightnessVsMatchedFraction(benchmark::State& state) {
  Schema schema = MakeChainSchema(16, 8);
  double fraction = static_cast<double>(state.range(0)) / 100.0;
  SimilarityMatrix m = MakeSimilarity(schema, fraction, 13);
  const std::vector<uint32_t> component =
      ComponentsByElement(EntityGraph(schema), schema.size());
  for (auto _ : state) {
    TightnessResult result = ComputeTightnessOfFit(schema, component, m);
    benchmark::DoNotOptimize(result.score);
  }
  state.counters["matched_pct"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TightnessVsMatchedFraction)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond);

void BM_TightnessIncludingGraphBuild(benchmark::State& state) {
  // The convenience overload builds the EntityGraph per call (the search
  // engine reads components from the catalog); include that cost.
  Schema schema = MakeChainSchema(16, 8);
  SimilarityMatrix m = MakeSimilarity(schema, 0.5, 17);
  for (auto _ : state) {
    TightnessResult result = ComputeTightnessOfFit(schema, m);
    benchmark::DoNotOptimize(result.score);
  }
}
BENCHMARK(BM_TightnessIncludingGraphBuild)->Unit(benchmark::kMicrosecond);

// Matcher ensemble throughput per candidate (the phase-2 unit of work).
void BM_EnsembleMatchPerCandidate(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(1000);
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  Schema query = SchemaBuilder("q")
                     .Entity("patient")
                     .Attribute("height", DataType::kDouble)
                     .Attribute("gender")
                     .Attribute("diagnosis")
                     .Build();
  size_t i = 0;
  for (auto _ : state) {
    const Schema& candidate =
        fixture.corpus[i++ % fixture.corpus.size()].schema;
    SimilarityMatrix m = ensemble.MatchCombined(query, candidate);
    benchmark::DoNotOptimize(m.Mean());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EnsembleMatchPerCandidate)->Unit(benchmark::kMicrosecond);

// Individual matcher costs, for the phase-2 budget breakdown.
template <typename MatcherT>
void MatcherThroughput(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(1000);
  MatcherT matcher;
  Schema query = SchemaBuilder("q")
                     .Entity("patient")
                     .Attribute("height", DataType::kDouble)
                     .Attribute("gender")
                     .Attribute("diagnosis")
                     .Build();
  size_t i = 0;
  for (auto _ : state) {
    const Schema& candidate =
        fixture.corpus[i++ % fixture.corpus.size()].schema;
    SimilarityMatrix m = matcher.Match(query, candidate);
    benchmark::DoNotOptimize(m.Mean());
  }
}

void BM_NameMatcherThroughput(benchmark::State& state) {
  MatcherThroughput<NameMatcher>(state);
}
void BM_ContextMatcherThroughput(benchmark::State& state) {
  MatcherThroughput<ContextMatcher>(state);
}
void BM_TypeMatcherThroughput(benchmark::State& state) {
  MatcherThroughput<TypeMatcher>(state);
}
void BM_StructureMatcherThroughput(benchmark::State& state) {
  MatcherThroughput<StructureMatcher>(state);
}
BENCHMARK(BM_NameMatcherThroughput)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ContextMatcherThroughput)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TypeMatcherThroughput)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StructureMatcherThroughput)->Unit(benchmark::kMicrosecond);

// Quality side of E6: a corpus salted with "scattered" distractors --
// schemas containing the right vocabulary spread over unrelated entities.
// TF/IDF and pure name matching cannot tell them from genuine concept
// schemas; tightness-of-fit penalizes the scattering. Prints a small
// table before the microbenchmarks run.
void RunScatteredDistractorExperiment() {
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 400;
  corpus_options.seed = 2061;
  auto fixture = CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture failed\n");
    return;
  }

  // For every concept add scattered distractors: its core attribute names
  // distributed one-per-entity with no foreign keys.
  Rng rng(5);
  size_t distractors = 0;
  for (const DomainConcept& dc : BuiltinConcepts()) {
    for (int copy = 0; copy < 6; ++copy) {
      Schema scattered("misc_" + dc.domain + "_" + std::to_string(copy));
      size_t entity_index = 0;
      for (const ConceptEntity& entity : dc.entities) {
        for (const ConceptAttribute& attr : entity.attributes) {
          if (!attr.core || rng.NextBool(0.4)) continue;
          ElementId island = scattered.AddEntity(
              "section" + std::to_string(entity_index++));
          scattered.AddAttribute(attr.name, island, attr.type);
        }
      }
      if (scattered.NumAttributes() < 4) continue;
      // Distractors are NOT in the relevance set: they are wrong answers
      // that share vocabulary.
      if (!fixture->serving->Ingest(std::move(scattered)).ok()) continue;
      ++distractors;
    }
  }

  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 44;
  workload_options.seed = 19;
  auto workload = GenerateQueryWorkload(workload_options);

  SearchEngine engine(fixture->serving.get());
  SearchEngineOptions no_tof;
  no_tof.enable_tightness = false;
  SearchEngineOptions with_tof;

  QualitySummary without = *EvaluateEngine(engine, *fixture, workload, no_tof);
  QualitySummary with = *EvaluateEngine(engine, *fixture, workload, with_tof);

  std::printf(
      "\n=== E6 tightness-of-fit vs scattered distractors "
      "(corpus=%zu + %zu distractors) ===\n",
      fixture->corpus.size(), distractors);
  std::printf("  %-18s %7s %7s %7s %7s\n", "ranking", "P@5", "P@10", "MRR",
              "nDCG10");
  std::printf("  %-18s %7.3f %7.3f %7.3f %7.3f\n", "without TOF",
              without.precision_at_5, without.precision_at_10, without.mrr,
              without.ndcg_at_10);
  std::printf("  %-18s %7.3f %7.3f %7.3f %7.3f\n", "with TOF",
              with.precision_at_5, with.precision_at_10, with.mrr,
              with.ndcg_at_10);
  std::printf("\n");
}

}  // namespace
}  // namespace schemr

int main(int argc, char** argv) {
  schemr::RunScatteredDistractorExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
