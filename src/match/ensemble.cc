#include "match/ensemble.h"

#include <cstring>
#include <stdexcept>

#include "match/codebook.h"
#include "match/context_matcher.h"
#include "match/features.h"
#include "match/name_matcher.h"
#include "match/structure_matcher.h"
#include "match/type_matcher.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace schemr {

DegradationState::DegradationState(std::vector<std::string> matcher_names,
                                   double budget_seconds)
    : matcher_names_(std::move(matcher_names)),
      budget_seconds_(budget_seconds),
      benched_(matcher_names_.size(), 0),
      matcher_seconds_(matcher_names_.size(), 0.0) {}

void DegradationState::SnapshotBenched(std::vector<char>* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  *out = benched_;
}

size_t DegradationState::Observe(const std::vector<char>& failed,
                                 const std::vector<char>& already_skipped,
                                 const std::vector<double>* candidate_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t newly_benched = 0;
  for (size_t m = 0; m < benched_.size(); ++m) {
    if (candidate_seconds != nullptr) {
      matcher_seconds_[m] += (*candidate_seconds)[m];
    }
    if (benched_[m] != 0) continue;
    if (already_skipped[m] == 0 && failed[m] != 0) {
      benched_[m] = 1;
      ++benched_count_;
      dropped_.push_back(matcher_names_[m]);
      ++newly_benched;
    } else if (budget_seconds_ > 0.0 && candidate_seconds != nullptr &&
               matcher_seconds_[m] > budget_seconds_) {
      benched_[m] = 1;
      ++benched_count_;
      dropped_.push_back(matcher_names_[m] + " (budget)");
      ++newly_benched;
    }
  }
  return newly_benched;
}

size_t DegradationState::benched_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return benched_count_;
}

std::vector<double> DegradationState::matcher_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return matcher_seconds_;
}

std::vector<std::string> DegradationState::dropped_matchers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void MatcherEnsemble::AddMatcher(std::unique_ptr<Matcher> matcher,
                                 double weight) {
  // Precomputed here so Match() can consult the fault site without a
  // per-(candidate x matcher) string allocation on the search hot path.
  fault_sites_.push_back("match/" + matcher->Name());
  matchers_.push_back(std::move(matcher));
  weights_.push_back(weight);
}

MatcherEnsemble MatcherEnsemble::Default() {
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<NameMatcher>(), 1.0);
  ensemble.AddMatcher(std::make_unique<ContextMatcher>(), 1.0);
  ensemble.AddMatcher(std::make_unique<TypeMatcher>(), 0.25);
  ensemble.AddMatcher(std::make_unique<StructureMatcher>(), 0.25);
  return ensemble;
}

MatcherEnsemble MatcherEnsemble::PaperMinimal() {
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<NameMatcher>(), 1.0);
  ensemble.AddMatcher(std::make_unique<ContextMatcher>(), 1.0);
  return ensemble;
}

MatcherEnsemble MatcherEnsemble::WithCodebook() {
  MatcherEnsemble ensemble = Default();
  ensemble.AddMatcher(std::make_unique<CodebookMatcher>(), 0.5);
  return ensemble;
}

void MatcherEnsemble::SetWeights(std::vector<double> weights) {
  if (weights.size() == matchers_.size()) {
    weights_ = std::move(weights);
  }
}

void MatcherEnsemble::SetLogisticModel(LogisticModel model) {
  if (model.weights.size() == matchers_.size()) {
    logistic_ = std::move(model);
  }
}

std::vector<std::string> MatcherEnsemble::MatcherNames() const {
  std::vector<std::string> names;
  names.reserve(matchers_.size());
  for (const auto& matcher : matchers_) names.push_back(matcher->Name());
  return names;
}

EnsembleResult MatcherEnsemble::Match(
    const Schema& query, const Schema& candidate,
    std::vector<double>* matcher_seconds, const std::vector<char>* skip,
    const MatchContext* context) const {
  const bool prepared = context != nullptr && context->complete();
  EnsembleResult result;
  result.matcher_names.reserve(matchers_.size());
  result.per_matcher.reserve(matchers_.size());
  result.failed.assign(matchers_.size(), 0);
  for (size_t m = 0; m < matchers_.size(); ++m) {
    result.matcher_names.push_back(matchers_[m]->Name());
    if (skip != nullptr && (*skip)[m] != 0) {
      // Benched by the caller (earlier failure or budget overrun); a zero
      // matrix with zero weight leaves it out of the combination.
      result.per_matcher.emplace_back(query.size(), candidate.size());
      result.failed[m] = 1;
      continue;
    }
    Timer timer;
    try {
      int err = FaultInjector::Global().Check(fault_sites_[m].c_str());
      if (err != 0) {
        throw std::runtime_error("injected matcher fault: " +
                                 std::string(std::strerror(err)));
      }
      result.per_matcher.push_back(
          prepared ? matchers_[m]->MatchPrepared(query, candidate, *context)
                   : matchers_[m]->Match(query, candidate));
    } catch (const InjectedCrash&) {
      throw;  // a simulated kill must never be absorbed as a matcher fault
    } catch (...) {
      result.per_matcher.emplace_back(query.size(), candidate.size());
      result.failed[m] = 1;
      result.any_failure = true;
    }
    if (matcher_seconds != nullptr) {
      (*matcher_seconds)[m] += timer.ElapsedSeconds();
    }
  }

  if (logistic_.has_value()) {
    // Cell-wise logistic combination of the per-matcher features.
    SimilarityMatrix combined(query.size(), candidate.size());
    std::vector<double> features(matchers_.size());
    for (size_t r = 0; r < query.size(); ++r) {
      for (size_t c = 0; c < candidate.size(); ++c) {
        for (size_t m = 0; m < matchers_.size(); ++m) {
          features[m] = result.per_matcher[m].at(r, c);
        }
        combined.set(r, c, logistic_->Predict(features));
      }
    }
    result.combined = std::move(combined);
  } else {
    std::vector<const SimilarityMatrix*> pointers;
    pointers.reserve(result.per_matcher.size());
    for (const auto& m : result.per_matcher) pointers.push_back(&m);
    std::vector<double> weights = weights_;
    for (size_t m = 0; m < weights.size(); ++m) {
      if (result.failed[m] != 0) weights[m] = 0.0;
    }
    result.combined = SimilarityMatrix::WeightedCombine(pointers, weights);
  }
  return result;
}

SimilarityMatrix MatcherEnsemble::MatchCombined(
    const Schema& query, const Schema& candidate,
    std::vector<double>* matcher_seconds) const {
  return Match(query, candidate, matcher_seconds).combined;
}

}  // namespace schemr
