// The match engine: an ensemble of matchers with a weighting scheme.
//
// "We combine the scores from each matcher with a weighting scheme, which
// is initially uniform. As Schemr is utilized in practice, we can record
// search histories to create a training set ... we may then determine an
// appropriate weighting scheme. For instance, Madhavan et al use a
// meta-learner to compute a logistic regression over a training set of
// schemas." (paper Sec. 2)
//
// MatcherEnsemble runs every matcher, exposes the per-matcher matrices
// (feature vectors for the meta-learner) and the combined total-similarity
// matrix. Combination is a normalized weighted average by default; when a
// trained LogisticModel is installed, each cell is instead the logistic
// of the weighted feature vector (Madhavan et al's meta-learner applied
// cell-wise).

#ifndef SCHEMR_MATCH_ENSEMBLE_H_
#define SCHEMR_MATCH_ENSEMBLE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "match/matcher.h"
#include "match/meta_learner.h"

namespace schemr {

/// Synchronized graceful-degradation state for one search: which ensemble
/// members are benched (threw, hit a fault site, or blew the cumulative
/// time budget), the per-matcher wall-time totals, and the dropped-matcher
/// names. Parallel scoring workers share one instance, so a matcher that
/// fails while several workers are in flight is still benched exactly
/// once -- the bench check-and-set and the budget accounting are a single
/// critical section, never a read-then-write race.
class DegradationState {
 public:
  /// `budget_seconds` <= 0 disables the cumulative time budget.
  DegradationState(std::vector<std::string> matcher_names,
                   double budget_seconds);

  size_t num_matchers() const { return matcher_names_.size(); }

  /// Copies the current benched mask into `out` (resized to
  /// num_matchers). Workers hand the copy to Match as `skip`; working
  /// from a private copy keeps the ensemble's reads off the shared state
  /// while another worker benches.
  void SnapshotBenched(std::vector<char>* out) const;

  /// Folds one candidate's outcome in. Matchers marked in `failed` that
  /// are not yet benched (and were not in `already_skipped`, whose
  /// entries Match reports as failed without running them) are benched
  /// now; `candidate_seconds`, when non-null, is added to the cumulative
  /// per-matcher time and members over budget are benched with a
  /// "(budget)" suffix. Returns how many members this call benched.
  size_t Observe(const std::vector<char>& failed,
                 const std::vector<char>& already_skipped,
                 const std::vector<double>* candidate_seconds);

  size_t benched_count() const;

  /// Accessors for after the scoring loop (still synchronized, but by
  /// then the workers have quiesced and the values are final).
  std::vector<double> matcher_seconds() const;
  std::vector<std::string> dropped_matchers() const;

 private:
  const std::vector<std::string> matcher_names_;
  const double budget_seconds_;
  mutable std::mutex mutex_;
  std::vector<char> benched_;
  size_t benched_count_ = 0;
  std::vector<double> matcher_seconds_;
  std::vector<std::string> dropped_;
};

/// Per-matcher output for one candidate (kept for diagnostics and
/// meta-learner feature extraction).
struct EnsembleResult {
  std::vector<std::string> matcher_names;
  std::vector<SimilarityMatrix> per_matcher;
  SimilarityMatrix combined;
  /// failed[m] != 0 when matcher m threw (or its fault site fired) on this
  /// candidate; its matrix is zeroed and its weight excluded from the
  /// combination (the remaining weights renormalize automatically).
  std::vector<char> failed;
  bool any_failure = false;
};

class MatcherEnsemble {
 public:
  MatcherEnsemble() = default;

  /// Adds a matcher with the given weight (used by the weighted-average
  /// combiner; ignored when a logistic model is installed).
  void AddMatcher(std::unique_ptr<Matcher> matcher, double weight = 1.0);

  /// The paper's default ensemble: name + context matchers, uniform
  /// weights, plus low-weight type and structure tie-breakers.
  static MatcherEnsemble Default();

  /// Name + context only, exactly the two matchers the paper describes.
  static MatcherEnsemble PaperMinimal();

  /// Default ensemble plus the codebook matcher (semantic types/units; the
  /// Applications-section extension).
  static MatcherEnsemble WithCodebook();

  size_t NumMatchers() const { return matchers_.size(); }
  const std::vector<double>& weights() const { return weights_; }
  void SetWeights(std::vector<double> weights);

  /// Installs a trained logistic combiner (feature order = matcher order,
  /// so the model must have NumMatchers features).
  void SetLogisticModel(LogisticModel model);
  void ClearLogisticModel() { logistic_.reset(); }
  bool HasLogisticModel() const { return logistic_.has_value(); }

  /// Matcher names in matcher order (the feature order of the
  /// meta-learner and of Match's timing accumulator).
  std::vector<std::string> MatcherNames() const;

  /// Runs all matchers and combines. When `matcher_seconds` is non-null it
  /// must have NumMatchers entries; each matcher's wall time is *added* to
  /// its slot, so the search engine can accumulate per-matcher totals
  /// across the whole candidate pool for tracing.
  ///
  /// Matchers are isolated: one that throws is recorded in
  /// EnsembleResult::failed, contributes a zero matrix and zero weight
  /// (the rest renormalize), and never fails the search. `skip`, when
  /// non-null (NumMatchers entries), excludes already-dropped matchers —
  /// the search engine passes the matchers it has benched for earlier
  /// failures or budget overruns. Each matcher also consults the fault
  /// site "match/<name>" so tests can force failures.
  ///
  /// `context`, when non-null, carries precomputed columnar features and
  /// the per-query term-pair memo; the name and context matchers score
  /// them, the rest ignore it. Name and context share the memo, and it
  /// keeps its pairs across the candidates of one query
  /// (MatchScratch::Bind). Without a context, each matcher builds what it
  /// needs from the two schemas (the same scores, computed per call).
  EnsembleResult Match(const Schema& query, const Schema& candidate,
                       std::vector<double>* matcher_seconds = nullptr,
                       const std::vector<char>* skip = nullptr,
                       const MatchContext* context = nullptr) const;

  /// Runs all matchers and returns only the combined matrix.
  SimilarityMatrix MatchCombined(
      const Schema& query, const Schema& candidate,
      std::vector<double>* matcher_seconds = nullptr) const;

 private:
  std::vector<std::unique_ptr<Matcher>> matchers_;
  std::vector<double> weights_;
  /// "match/<name>" per matcher, precomputed so the hot path passes a
  /// cached c_str() to the fault injector instead of allocating.
  std::vector<std::string> fault_sites_;
  std::optional<LogisticModel> logistic_;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_ENSEMBLE_H_
