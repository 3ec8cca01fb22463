// Experiment E3 (DESIGN.md): the name matcher on hard name variation.
//
// "We found this matcher to be particularly helpful for properly ranking
// schemas containing abbreviated terms, alternate grammatical forms, and
// delimiter characters not in the original query." (paper Sec. 2)
//
// This bench quantifies that sentence: ranking quality with the name
// matcher in vs out of the ensemble, across query sets that stress each
// variation class. Expected shape: on clean names the delta is small; on
// abbreviated/truncated names the name matcher recovers most of the loss.

#include <cstdio>

#include "bench_common.h"
#include "match/context_matcher.h"
#include "match/name_matcher.h"

namespace schemr {
namespace {

MatcherEnsemble WithoutNameMatcher() {
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<ContextMatcher>(), 1.0);
  return ensemble;
}

int Run() {
  struct QuerySpecFull {
    const char* label;
    double abbreviation_prob;
    double truncation_prob;
    double synonym_prob;
  };
  const QuerySpecFull specs[] = {
      {"clean keywords", 0.0, 0.0, 0.0},
      {"abbreviated keywords (p=0.4)", 0.4, 0.0, 0.0},
      {"ad-hoc truncations (p=0.4)", 0.0, 0.4, 0.0},
      {"synonym swaps (p=0.5)", 0.0, 0.0, 0.5},
      {"all three (p=0.3 each)", 0.3, 0.3, 0.3},
  };

  // Noisy corpus: schema element names themselves carry abbreviations and
  // style variation, as real repositories do.
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 2000;
  corpus_options.seed = 71;
  corpus_options.name_noise.abbreviation_prob = 0.3;
  auto fixture = CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture failed\n");
    return 1;
  }

  SearchEngine with_name(fixture->serving.get(),
                         MatcherEnsemble::PaperMinimal());
  SearchEngine without_name(fixture->serving.get(), WithoutNameMatcher());

  std::printf("\n=== E3 name matcher vs name variation (corpus=%zu) ===\n",
              fixture->corpus.size());
  std::printf("  %-30s %12s %12s %9s\n", "query set", "MRR(with)",
              "MRR(without)", "delta");
  for (const QuerySpecFull& spec : specs) {
    QueryWorkloadOptions workload_options;
    workload_options.num_queries = 44;
    workload_options.seed = 13;
    workload_options.keyword_noise.abbreviation_prob =
        spec.abbreviation_prob;
    workload_options.keyword_noise.truncation_prob = spec.truncation_prob;
    workload_options.keyword_noise.synonym_prob = spec.synonym_prob;
    auto workload = GenerateQueryWorkload(workload_options);

    QualitySummary with = *EvaluateEngine(with_name, *fixture, workload);
    QualitySummary without =
        *EvaluateEngine(without_name, *fixture, workload);
    std::printf("  %-30s %12.3f %12.3f %+9.3f\n", spec.label, with.mrr,
                without.mrr, with.mrr - without.mrr);
  }

  // Micro-level: pairwise similarity of canonical names vs their hard
  // variants, name matcher in its banded and exhaustive (paper) modes.
  std::printf("\n  pairwise name similarities (banded / exhaustive):\n");
  NameMatcher banded;
  NameMatcherOptions exhaustive_options;
  exhaustive_options.exhaustive_ngrams = true;
  NameMatcher exhaustive(exhaustive_options);
  const std::pair<const char*, const char*> pairs[] = {
      {"patient", "pat"},          {"date_of_birth", "dob"},
      {"date_of_birth", "dateOfBirth"}, {"diagnosis", "diagnoses"},
      {"height", "ht"},            {"patient_name", "PatientName"},
      {"quantity", "qty"},         {"gender", "sex"},
      {"customer", "client"},      {"patient", "order"},
  };
  for (const auto& [a, b] : pairs) {
    std::printf("    %-16s vs %-16s  %.3f / %.3f\n", a, b,
                banded.NameSimilarity(a, b), exhaustive.NameSimilarity(a, b));
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace schemr

int main() { return schemr::Run(); }
