// Experiment E20 (DESIGN.md §16): what the approximate signature
// pre-filter costs in quality, as a function of its threshold.
//
// Exact mode (threshold 0) is digest-identical to the legacy pipeline by
// construction, so the only quality question is about the explicit
// opt-in screen: when a caller trades recall for latency, how much recall
// goes, and where is the knee? Two recall notions are reported:
//
//   - concept recall (R@10 against the generator's relevance sets): the
//     standard IR metric, comparable with E5/E9;
//   - window retention: the fraction of the EXACT top-10 that survives
//     the screen — the direct "what did the screen cost me" number that
//     justifies the documented default threshold.
//
// The rejection column shows what buys the speedup: the fraction of the
// phase-1 pool the screen discards before any matcher runs.

#include <cstdio>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "eval/harness.h"
#include "eval/ir_metrics.h"
#include "index/indexer.h"
#include "match/features.h"
#include "repo/schema_repository.h"
#include "util/timer.h"

namespace schemr {
namespace {

int Run() {
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 2000;
  corpus_options.seed = 20090629;
  auto fixture = CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture failed: %s\n",
                 fixture->indexer ? "index" : "corpus");
    return 1;
  }

  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 60;
  workload_options.seed = 71;
  workload_options.fragment_prob = 0.3;
  std::vector<WorkloadQuery> workload =
      GenerateQueryWorkload(workload_options);

  // One pinned snapshot with the feature catalog: the engine every
  // configuration runs against.
  auto snapshot = PinSnapshot(
      *fixture->repository,
      std::shared_ptr<const InvertedIndex>(
          std::shared_ptr<const InvertedIndex>(), &fixture->index()));
  if (!snapshot.ok()) {
    std::fprintf(stderr, "catalog failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  SearchEngine engine(*snapshot);

  // The exact top-10 of every query, for window retention.
  std::vector<std::vector<uint64_t>> exact_windows;
  for (const WorkloadQuery& q : workload) {
    SearchEngineOptions exact;
    auto results = engine.SearchKeywords(q.keywords, exact);
    std::vector<uint64_t> window;
    if (results.ok()) {
      for (const SearchResult& r : *results) window.push_back(r.schema_id);
    }
    exact_windows.push_back(std::move(window));
  }

  std::printf(
      "\n=== E20 signature pre-filter ablation (corpus=%zu, %zu queries)"
      " ===\n",
      fixture->corpus.size(), workload.size());
  std::printf("  %-9s %7s %7s %7s %7s %9s %9s %10s\n", "threshold", "P@5",
              "R@10", "nDCG10", "MRR", "retained", "rej/query", "ms/query");

  const double thresholds[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  for (double threshold : thresholds) {
    SearchEngineOptions options;
    options.prefilter = threshold;
    auto summary = EvaluateEngine(engine, *fixture, workload, options);
    if (!summary.ok()) {
      std::fprintf(stderr, "evaluate failed\n");
      return 1;
    }

    // Window retention + rejections + latency, measured directly.
    double retained_sum = 0.0;
    size_t retained_n = 0;
    size_t rejected = 0;
    Timer timer;
    for (size_t i = 0; i < workload.size(); ++i) {
      SearchStats stats;
      SearchEngineOptions timed = options;
      timed.stats = &stats;
      auto results = engine.SearchKeywords(workload[i].keywords, timed);
      if (!results.ok()) continue;
      rejected += stats.prefilter_rejected;
      if (!exact_windows[i].empty()) {
        std::unordered_set<uint64_t> got;
        for (const SearchResult& r : *results) got.insert(r.schema_id);
        size_t kept = 0;
        for (uint64_t id : exact_windows[i]) kept += got.count(id);
        retained_sum +=
            static_cast<double>(kept) /
            static_cast<double>(exact_windows[i].size());
        ++retained_n;
      }
    }
    const double ms_per_query =
        workload.empty() ? 0.0
                         : timer.ElapsedSeconds() * 1e3 / workload.size();

    std::printf("  %-9.2f %7.3f %7.3f %7.3f %7.3f %8.1f%% %9.1f %10.3f\n",
                threshold, summary->precision_at_5, summary->recall_at_10,
                summary->ndcg_at_10, summary->mrr,
                retained_n == 0 ? 0.0 : 100.0 * retained_sum / retained_n,
                workload.empty() ? 0.0
                                 : static_cast<double>(rejected) /
                                       static_cast<double>(workload.size()),
                ms_per_query);
  }
  std::printf(
      "\n  threshold 0 is exact mode (bit-identical to legacy; the gate\n"
      "  enforces it); retained = fraction of the exact top-10 surviving\n"
      "  the screen; rej/query = mean candidates screened out before any\n"
      "  matcher ran.\n");
  return 0;
}

}  // namespace
}  // namespace schemr

int main() { return schemr::Run(); }
