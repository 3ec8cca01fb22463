// Tightness-of-fit: Schemr's structurally-aware final score (paper Sec. 2
// and Fig. 4).
//
// Given the combined similarity matrix of a candidate schema, each schema
// element's final match score S(e) is its best value over all query
// elements. The measure then penalizes matched elements by their entity
// distance to an *anchor entity* A:
//
//   same entity as A                          → no penalty
//   A's entity neighborhood (FK transitive
//   closure)                                  → small penalty
//   unrelated entity                          → larger penalty
//
// t(A) = mean over matched elements of (S(e) − P_A(e)); the final score is
// t_max = max over all candidate anchors. This rewards schemas where the
// matched elements sit close together -- the query's "semantic intent".

#ifndef SCHEMR_CORE_TIGHTNESS_OF_FIT_H_
#define SCHEMR_CORE_TIGHTNESS_OF_FIT_H_

#include <cstdint>
#include <vector>

#include "match/similarity_matrix.h"
#include "schema/schema.h"

namespace schemr {

struct TightnessOptions {
  /// Penalty fraction for elements in the anchor's FK neighborhood
  /// ("small penalty").
  double neighborhood_penalty = 0.2;
  /// Penalty fraction for elements in unrelated entities ("larger
  /// penalty").
  double unrelated_penalty = 0.5;
  /// Elements with S(e) below this do not count as matched (and so
  /// neither dilute the average nor qualify their entity as an anchor).
  double match_threshold = 0.3;
  /// Scale the final score by the fraction of query elements that found a
  /// match (row max ≥ threshold): the coordination factor of phase 1
  /// carried into the fine-grained phase. Without it, a candidate with a
  /// single strong generic hit (mean ≈ its one score) outranks a schema
  /// matching every query element.
  bool scale_by_query_coverage = true;
};

/// Fraction of query elements (matrix rows) whose best match reaches
/// `threshold`; 1.0 for empty matrices.
double QueryCoverage(const SimilarityMatrix& similarity, double threshold);

/// Per-element contribution, reported for visualization (nodes are colored
/// by similarity) and diagnostics.
struct MatchedElement {
  ElementId element = kNoElement;
  double score = 0.0;           ///< S(e)
  double penalized_score = 0.0; ///< S(e) − P_A*(e) under the best anchor
};

struct TightnessResult {
  /// t_max; 0 when nothing matched.
  double score = 0.0;
  /// The anchor entity achieving t_max (kNoElement when nothing matched).
  ElementId best_anchor = kNoElement;
  /// Matched elements with their scores under the best anchor.
  std::vector<MatchedElement> matched;
};

/// Computes the tightness-of-fit of `candidate` given the combined
/// similarity matrix (rows = query elements, cols = candidate elements,
/// cols must equal candidate.size()). Convenience: builds the candidate's
/// EntityGraph.
TightnessResult ComputeTightnessOfFit(const Schema& candidate,
                                      const SimilarityMatrix& similarity,
                                      const TightnessOptions& options = {});

/// The same, reading entity neighborhoods from `component`, the
/// candidate's ComponentsByElement (the search engine's hot path reads it
/// from the candidate's match features). A `component` whose size is not
/// candidate.size() is ignored and the graph built.
TightnessResult ComputeTightnessOfFit(const Schema& candidate,
                                      const std::vector<uint32_t>& component,
                                      const SimilarityMatrix& similarity,
                                      const TightnessOptions& options = {});

}  // namespace schemr

#endif  // SCHEMR_CORE_TIGHTNESS_OF_FIT_H_
