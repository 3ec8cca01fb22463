// Experiment E5 (DESIGN.md): matcher weighting -- uniform vs learned.
//
// "We combine the scores from each matcher with a weighting scheme, which
// is initially uniform. As Schemr is utilized in practice, we can record
// search histories to create a training set ... we may then determine an
// appropriate weighting scheme" (paper Sec. 2, citing Madhavan et al's
// logistic-regression meta-learner).
//
// Trains the logistic model on simulated search histories of increasing
// size and reports: (a) pair-classification accuracy vs the uniform-score
// threshold baseline, (b) the learned per-matcher weights, and (c)
// end-to-end retrieval quality with uniform, learned-weight, and
// logistic-combiner ensembles.

#include <cstdio>

#include "bench_common.h"
#include "corpus/search_history.h"
#include "util/timer.h"

namespace schemr {
namespace {

/// Uniform baseline: predict relevant iff mean matcher score ≥ 0.5.
double UniformBaselineAccuracy(const std::vector<TrainingRecord>& records) {
  size_t correct = 0;
  for (const TrainingRecord& r : records) {
    double mean = 0.0;
    for (double f : r.features) mean += f;
    mean /= static_cast<double>(r.features.size());
    if ((mean >= 0.5) == r.relevant) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(records.size());
}

int Run() {
  MatcherEnsemble feature_ensemble = MatcherEnsemble::Default();

  std::printf("\n=== E5 meta-learner: search-history training ===\n");
  std::printf("  %-10s %10s %10s %10s %10s\n", "records", "train_ms",
              "acc(train)", "acc(test)", "acc(unif)");
  LogisticModel final_model;
  for (size_t n : {50ul, 200ul, 800ul}) {
    SearchHistoryOptions history_options;
    history_options.num_records = n;
    history_options.seed = 1001;
    auto train = SimulateSearchHistory(feature_ensemble, history_options);
    history_options.seed = 2002;  // held-out histories
    auto test = SimulateSearchHistory(feature_ensemble, history_options);

    Timer timer;
    auto model = TrainLogisticModel(train);
    double train_ms = timer.ElapsedMillis();
    if (!model.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-10zu %10.1f %10.3f %10.3f %10.3f\n", n, train_ms,
                EvaluateAccuracy(*model, train),
                EvaluateAccuracy(*model, test),
                UniformBaselineAccuracy(test));
    final_model = *model;
  }

  std::printf("\n  learned weights (name, context, type, structure): ");
  for (double w : final_model.NormalizedWeights()) std::printf("%.3f ", w);
  std::printf("\n  bias: %.3f\n", final_model.bias);

  // End-to-end effect on retrieval.
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 1500;
  corpus_options.seed = 55;
  corpus_options.name_noise.abbreviation_prob = 0.3;
  auto fixture = CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) return 1;
  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 44;
  workload_options.keyword_noise.abbreviation_prob = 0.2;
  auto workload = GenerateQueryWorkload(workload_options);

  std::printf("\n  end-to-end retrieval (corpus=%zu):\n",
              fixture->corpus.size());
  std::printf("  %-26s %7s %7s %7s\n", "ensemble weighting", "P@5", "MRR",
              "nDCG10");

  {
    SearchEngine engine(fixture->serving.get());
    QualitySummary q = *EvaluateEngine(engine, *fixture, workload);
    std::printf("  %-26s %7.3f %7.3f %7.3f\n", "uniform", q.precision_at_5,
                q.mrr, q.ndcg_at_10);
  }
  {
    MatcherEnsemble ensemble = MatcherEnsemble::Default();
    ensemble.SetWeights(final_model.NormalizedWeights());
    SearchEngine engine(fixture->serving.get(), std::move(ensemble));
    QualitySummary q = *EvaluateEngine(engine, *fixture, workload);
    std::printf("  %-26s %7.3f %7.3f %7.3f\n", "learned weights",
                q.precision_at_5, q.mrr, q.ndcg_at_10);
  }
  {
    MatcherEnsemble ensemble = MatcherEnsemble::Default();
    ensemble.SetLogisticModel(final_model);
    SearchEngine engine(fixture->serving.get(), std::move(ensemble));
    QualitySummary q = *EvaluateEngine(engine, *fixture, workload);
    std::printf("  %-26s %7.3f %7.3f %7.3f\n", "logistic combiner",
                q.precision_at_5, q.mrr, q.ndcg_at_10);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace schemr

int main() { return schemr::Run(); }
