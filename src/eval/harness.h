// Shared experiment harness: builds a generated corpus into a serving
// corpus over an in-memory repository, and evaluates a search engine
// against a ground-truth query workload. Used by the quality benchmarks
// (E3-E9) and integration tests so every experiment measures the same
// build that serves.

#ifndef SCHEMR_EVAL_HARNESS_H_
#define SCHEMR_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "corpus/query_workload.h"
#include "corpus/schema_generator.h"
#include "repo/schema_repository.h"

namespace schemr {

/// A ready-to-search corpus: a ServingCorpus over the generated schemas,
/// and relevance ground truth. Move-only (owns the corpus).
struct CorpusFixture {
  std::unique_ptr<ServingCorpus> serving;
  std::vector<GeneratedSchema> corpus;
  std::vector<SchemaId> ids;  ///< parallel to corpus
  std::unordered_map<std::string, std::unordered_set<SchemaId>> relevance;

  /// The serving corpus's repository (schemas and annotations).
  SchemaRepository* repository() const { return serving->repository(); }
  /// The current snapshot's text index (valid until the next write).
  const InvertedIndex& index() const { return *serving->Snapshot()->index; }

  /// Generates and inserts a corpus (in-memory repository), then stands
  /// it up through ServingCorpus::Create.
  static Result<CorpusFixture> Build(const CorpusOptions& options);
};

/// Mean quality metrics of one engine configuration over a workload.
struct QualitySummary {
  double precision_at_5 = 0.0;
  double precision_at_10 = 0.0;
  double recall_at_10 = 0.0;
  double mrr = 0.0;
  double map = 0.0;
  double ndcg_at_10 = 0.0;
  size_t num_queries = 0;
};

/// Runs every workload query through `engine` and averages the metrics.
/// Queries whose concept has no relevant schemas in the corpus are
/// skipped.
Result<QualitySummary> EvaluateEngine(
    const SearchEngine& engine, const CorpusFixture& fixture,
    const std::vector<WorkloadQuery>& workload,
    const SearchEngineOptions& options = {});

/// One-line rendering "P@5=0.92 P@10=0.87 R@10=0.41 MRR=0.95 MAP=0.52
/// nDCG@10=0.90 (n=50)".
std::string FormatQuality(const QualitySummary& summary);

}  // namespace schemr

#endif  // SCHEMR_EVAL_HARNESS_H_
