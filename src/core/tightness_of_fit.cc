#include "core/tightness_of_fit.h"

#include <algorithm>

#include "schema/entity_graph.h"

namespace schemr {

TightnessResult ComputeTightnessOfFit(const Schema& candidate,
                                      const SimilarityMatrix& similarity,
                                      const TightnessOptions& options) {
  return ComputeTightnessOfFit(
      candidate, ComponentsByElement(EntityGraph(candidate), candidate.size()),
      similarity, options);
}

double QueryCoverage(const SimilarityMatrix& similarity, double threshold) {
  if (similarity.rows() == 0) return 1.0;
  size_t covered = 0;
  for (size_t r = 0; r < similarity.rows(); ++r) {
    if (similarity.RowMax(r) >= threshold) ++covered;
  }
  return static_cast<double>(covered) /
         static_cast<double>(similarity.rows());
}

TightnessResult ComputeTightnessOfFit(const Schema& candidate,
                                      const std::vector<uint32_t>& component,
                                      const SimilarityMatrix& similarity,
                                      const TightnessOptions& options) {
  if (component.size() != candidate.size()) {
    // Not this schema's components: derive them from the schema.
    return ComputeTightnessOfFit(candidate, similarity, options);
  }
  TightnessResult result;
  if (similarity.cols() != candidate.size()) return result;

  // S(e): best score per candidate element; collect matched elements and
  // their containing entities.
  struct Matched {
    ElementId element;
    ElementId entity;  // kNoElement for parentless attributes
    double score;
  };
  std::vector<Matched> matched;
  std::vector<ElementId> anchors;
  for (ElementId e = 0; e < candidate.size(); ++e) {
    double s = similarity.ColumnMax(e);
    if (s < options.match_threshold) continue;
    ElementId entity = candidate.EntityOf(e);
    matched.push_back(Matched{e, entity, s});
    if (entity != kNoElement &&
        std::find(anchors.begin(), anchors.end(), entity) == anchors.end()) {
      anchors.push_back(entity);
    }
  }
  if (matched.empty()) return result;

  const double coverage =
      options.scale_by_query_coverage
          ? QueryCoverage(similarity, options.match_threshold)
          : 1.0;

  // Degenerate but possible: matched elements with no containing entity
  // (free attributes). With no anchor candidates, score the plain average.
  if (anchors.empty()) {
    double sum = 0.0;
    for (const Matched& m : matched) sum += m.score;
    result.score = coverage * sum / static_cast<double>(matched.size());
    for (const Matched& m : matched) {
      result.matched.push_back(MatchedElement{m.element, m.score, m.score});
    }
    return result;
  }

  // "This calculation is repeated for all possible anchor entities, and
  // the maximum of all calculations is selected."
  double best = -1.0;
  ElementId best_anchor = kNoElement;
  std::vector<double> best_penalized;
  std::vector<double> penalized(matched.size());
  for (ElementId anchor : anchors) {
    double sum = 0.0;
    for (size_t i = 0; i < matched.size(); ++i) {
      const Matched& m = matched[i];
      double penalty_fraction;
      if (m.entity == anchor) {
        penalty_fraction = 0.0;
      } else if (m.entity != kNoElement &&
                 component[m.entity] == component[anchor]) {
        penalty_fraction = options.neighborhood_penalty;
      } else {
        penalty_fraction = options.unrelated_penalty;
      }
      penalized[i] = m.score * (1.0 - penalty_fraction);
      sum += penalized[i];
    }
    double t = sum / static_cast<double>(matched.size());
    if (t > best) {
      best = t;
      best_anchor = anchor;
      best_penalized = penalized;
    }
  }

  result.score = coverage * best;
  result.best_anchor = best_anchor;
  result.matched.reserve(matched.size());
  for (size_t i = 0; i < matched.size(); ++i) {
    result.matched.push_back(
        MatchedElement{matched[i].element, matched[i].score,
                       best_penalized[i]});
  }
  return result;
}

}  // namespace schemr
