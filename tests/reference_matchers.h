// Reference implementations of the name and context matchers: the
// original per-candidate algorithms, kept as the oracle the production
// matchers are compared against (DESIGN.md §16).
//
// The production matchers score through precomputed columnar features and
// a shared term-pair memo. These classes recompute everything from the two
// schemas on every call -- tokenize, stem, profile every name; rebuild
// both entity graphs and every neighborhood term set -- exactly as the
// paper describes the matchers. They are slow on purpose and must never
// change behaviour: every test that asserts the fast kernel is exact
// compares against them cell for cell.

#ifndef SCHEMR_TESTS_REFERENCE_MATCHERS_H_
#define SCHEMR_TESTS_REFERENCE_MATCHERS_H_

#include <string>
#include <vector>

#include "match/context_matcher.h"
#include "match/ensemble.h"
#include "match/matcher.h"
#include "match/name_matcher.h"
#include "text/ngram.h"

namespace schemr {

/// The name matcher computed per pair: n-gram Dice over NgramProfiles with
/// prefix/subsequence/synonym lifts, word alignment, concatenation rescue
/// and acronym detection. MatchPrepared ignores the context.
class ReferenceNameMatcher : public Matcher {
 public:
  explicit ReferenceNameMatcher(NameMatcherOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "name"; }

  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override;

  /// Similarity of two raw element names.
  double NameSimilarity(const std::string& a, const std::string& b) const;

  /// N-gram profile of one normalized word under this matcher's banding.
  NgramProfile WordProfile(const std::string& word) const;

  /// Single-word similarity on precomputed profiles of normalized words.
  double WordSimilarity(const std::string& a, const NgramProfile& pa,
                        const std::string& b, const NgramProfile& pb) const;

 private:
  struct PreparedName {
    std::vector<std::string> words;
    std::vector<NgramProfile> word_profiles;
    std::string concat;
    NgramProfile concat_profile;
    std::string initials;
  };

  std::vector<std::string> NormalizeName(const std::string& name) const;
  PreparedName Prepare(const std::string& name) const;
  double PairSimilarity(const PreparedName& a, const PreparedName& b) const;

  NameMatcherOptions options_;
};

/// The context matcher computed per pair: neighborhood term sets rebuilt
/// from both schemas' entity graphs, compared by soft (or exact) Jaccard.
/// MatchPrepared ignores the context.
class ReferenceContextMatcher : public Matcher {
 public:
  explicit ReferenceContextMatcher(ContextMatcherOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "context"; }

  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override;

  /// The normalized term set of `id`'s neighborhood, sorted.
  std::vector<std::string> NeighborhoodTerms(const Schema& schema,
                                             ElementId id) const;

 private:
  std::vector<std::string> NeighborhoodTermsWithGraph(
      const Schema& schema, const class EntityGraph& graph,
      ElementId id) const;

  double ExactJaccard(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) const;

  ContextMatcherOptions options_;
  ReferenceNameMatcher name_matcher_;  // soft-alignment word similarity
};

/// MatcherEnsemble::Default() with the reference name and context matchers
/// in place of the production ones: same four matchers, names and weights.
MatcherEnsemble ReferenceEnsemble();

}  // namespace schemr

#endif  // SCHEMR_TESTS_REFERENCE_MATCHERS_H_
