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

#ifndef SCHEMR_MATCH_CONTEXT_MATCHER_H_
#define SCHEMR_MATCH_CONTEXT_MATCHER_H_

#include <string>
#include <vector>

#include "match/matcher.h"
#include "match/name_matcher.h"

namespace schemr {

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

  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override;

  /// Columnar fast path: neighborhoods and term profiles come from the
  /// precomputed SchemaFeatures, pair similarities from the shared memo,
  /// and each similarity is computed once per pair of neighborhood
  /// classes. Bit-identical to Match(): class term lists preserve the
  /// legacy std::set order, so the soft-Jaccard sums run over the same
  /// values in the same order. Falls back to Match() when the context is
  /// incomplete or built under different options (including a non-default
  /// name-matcher banding, which would change the term profiles).
  SimilarityMatrix MatchPrepared(const Schema& query, const Schema& candidate,
                                 const MatchContext& context) const override;

  /// The normalized term set of `id`'s neighborhood (exposed for tests).
  std::vector<std::string> NeighborhoodTerms(const Schema& schema,
                                             ElementId id) const;

 private:
  std::vector<std::string> NeighborhoodTermsWithGraph(
      const Schema& schema, const class EntityGraph& graph,
      ElementId id) const;

  double TermSetSimilarity(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) const;

  /// Soft-Jaccard with a shared per-Match() profile/pair cache (opaque
  /// pointer keeps the cache type out of the header).
  double SoftTermSetSimilarity(const std::vector<std::string>& a,
                               const std::vector<std::string>& b,
                               void* cache) const;

  ContextMatcherOptions options_;
  NameMatcher name_matcher_;  // provides the soft-alignment similarity
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_CONTEXT_MATCHER_H_
