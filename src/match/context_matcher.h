// Context matcher: neighborhood term-set similarity.
//
// "A context matcher builds a set of terms from neighboring elements, and
// tries to capture matches when neighboring-element sets are similar to
// each other." (paper Sec. 2, following Rahm & Bernstein's survey)
//
// The neighborhood of an element gathers terms from: the element itself,
// its parent, its children, its siblings, and -- for attributes -- the
// names of FK-linked entities of its containing entity. Two neighborhoods
// are compared with a soft Jaccard: terms align by exact equality or, when
// enabled, by n-gram similarity above a threshold (so "pat" in a query
// neighborhood still aligns with "patient").
//
// Neighborhoods are precomputed per schema as classes of identical term
// sets (match/features.h): all attributes of a table share one, so each
// pair of classes is scored once and scattered to its element pairs.

#ifndef SCHEMR_MATCH_CONTEXT_MATCHER_H_
#define SCHEMR_MATCH_CONTEXT_MATCHER_H_

#include <string>
#include <vector>

#include "match/matcher.h"
#include "match/name_matcher.h"

namespace schemr {

struct FeatureBuildOptions;  // match/features.h

struct ContextMatcherOptions {
  /// Use n-gram soft term alignment (slower, fuzzier). When false, terms
  /// align only on exact equality after normalization.
  bool soft_alignment = true;
  /// Minimum n-gram similarity for a soft alignment to count.
  double soft_threshold = 0.55;
  /// Include FK-linked entity names in an element's neighborhood.
  bool include_fk_neighbors = true;
};

/// Neighborhood term-set matcher.
class ContextMatcher : public Matcher {
 public:
  explicit ContextMatcher(ContextMatcherOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "context"; }

  /// Builds standalone features for both schemas under this matcher's
  /// options and scores them with MatchPrepared.
  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override;

  /// Scores precomputed neighborhood classes, with word-pair similarities
  /// from the shared memo. Class term lists are sorted by text, so the
  /// soft-Jaccard sums run in a fixed order. Features built under other
  /// options -- including a non-default name banding, which would change
  /// the term profiles -- are never used: Match() builds them under this
  /// matcher's options.
  SimilarityMatrix MatchPrepared(const Schema& query, const Schema& candidate,
                                 const MatchContext& context) const override;

  /// The normalized term set of `id`'s neighborhood, sorted (exposed for
  /// tests).
  std::vector<std::string> NeighborhoodTerms(const Schema& schema,
                                             ElementId id) const;

 private:
  /// The features this matcher scores: its own context options, and the
  /// default name banding of the word similarity it aligns terms with.
  FeatureBuildOptions BuildOptions() const;

  ContextMatcherOptions options_;
  NameMatcher name_matcher_;  // provides the soft-alignment similarity
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_CONTEXT_MATCHER_H_
