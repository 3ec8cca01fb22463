// Experiment E4 (DESIGN.md): the context matcher's contribution.
//
// The context matcher "builds a set of terms from neighboring elements,
// and tries to capture matches when neighboring-element sets are similar"
// (paper Sec. 2). Its signal is structural context, so it should matter
// most when element names alone are ambiguous: many corpus schemas share
// generic attribute names ("name", "date", "id") and only the
// neighborhood disambiguates. This bench compares ensembles with and
// without the context matcher on fragment queries (where the query itself
// has context) and reports the soft-vs-hard alignment trade-off.

#include <cstdio>

#include "bench_common.h"
#include "match/context_matcher.h"
#include "match/name_matcher.h"
#include "util/timer.h"

namespace schemr {
namespace {

MatcherEnsemble NameOnly() {
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<NameMatcher>(), 1.0);
  return ensemble;
}

MatcherEnsemble NamePlusContext(bool soft) {
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<NameMatcher>(), 1.0);
  ContextMatcherOptions options;
  options.soft_alignment = soft;
  ensemble.AddMatcher(std::make_unique<ContextMatcher>(options), 1.0);
  return ensemble;
}

int Run() {
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 1500;
  corpus_options.seed = 83;
  // Extra generic attributes make bare names ambiguous.
  corpus_options.generic_attributes_per_entity = 2.0;
  auto fixture = CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture failed\n");
    return 1;
  }

  // Fragment-bearing workload: the query graph carries neighborhoods.
  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 44;
  workload_options.seed = 29;
  workload_options.fragment_prob = 1.0;
  workload_options.keywords_per_query = 2;  // weak keywords, strong fragment
  auto workload = GenerateQueryWorkload(workload_options);

  std::printf("\n=== E4 context matcher (corpus=%zu, fragment queries) ===\n",
              fixture->corpus.size());
  std::printf("  %-28s %7s %7s %7s %10s\n", "ensemble", "P@5", "MRR",
              "nDCG10", "ms/query");

  struct Config {
    const char* label;
    MatcherEnsemble ensemble;
  };
  Config configs[] = {
      {"name only", NameOnly()},
      {"name + context (soft)", NamePlusContext(true)},
      {"name + context (exact)", NamePlusContext(false)},
  };
  for (Config& config : configs) {
    SearchEngine engine(fixture->serving.get(), std::move(config.ensemble));
    Timer timer;
    QualitySummary q = *EvaluateEngine(engine, *fixture, workload);
    double ms_per_query =
        timer.ElapsedMillis() / static_cast<double>(q.num_queries);
    std::printf("  %-28s %7.3f %7.3f %7.3f %10.1f\n", config.label,
                q.precision_at_5, q.mrr, q.ndcg_at_10, ms_per_query);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace schemr

int main() { return schemr::Run(); }
