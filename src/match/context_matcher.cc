#include "match/context_matcher.h"

#include <algorithm>

#include "match/features.h"

namespace schemr {

namespace {

/// One neighborhood class: term indices in text order.
struct ClassTerms {
  const uint32_t* begin;
  const uint32_t* end;
  size_t size() const { return static_cast<size_t>(end - begin); }
  bool empty() const { return begin == end; }
};

ClassTerms ClassOf(const SchemaFeatures& features, size_t k) {
  const uint32_t* base = features.class_terms.data();
  return {base + features.class_offsets[k], base + features.class_offsets[k + 1]};
}

/// Exact Jaccard of two classes, merged by term text (the two sides may
/// resolve in different dictionaries).
double ExactJaccard(const MatchScratch& memo, ClassTerms a, ClassTerms b) {
  if (a.empty() || b.empty()) return 0.0;
  size_t inter = 0;
  for (const uint32_t *i = a.begin, *j = b.begin; i != a.end && j != b.end;) {
    const int cmp = memo.QueryText(*i).compare(memo.CandidateText(*j));
    if (cmp == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

/// Soft Jaccard of two classes: each term aligns with its best
/// counterpart, alignments below the threshold contribute nothing, and
/// the two directional sums average into the intersection.
double SoftJaccard(MatchScratch& memo, const NameMatcher& matcher,
                   double threshold, ClassTerms a, ClassTerms b) {
  double sum_a = 0.0;
  for (const uint32_t* t = a.begin; t != a.end; ++t) {
    double best = 0.0;
    for (const uint32_t* u = b.begin; u != b.end; ++u) {
      best = std::max(best, memo.Similarity(matcher, *t, *u));
      if (best >= 1.0) break;
    }
    if (best >= threshold) sum_a += best;
  }
  double sum_b = 0.0;
  for (const uint32_t* u = b.begin; u != b.end; ++u) {
    double best = 0.0;
    for (const uint32_t* t = a.begin; t != a.end; ++t) {
      best = std::max(best, memo.Similarity(matcher, *t, *u));
      if (best >= 1.0) break;
    }
    if (best >= threshold) sum_b += best;
  }
  const double inter = (sum_a + sum_b) / 2.0;
  const double uni = static_cast<double>(a.size() + b.size()) - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

}  // namespace

FeatureBuildOptions ContextMatcher::BuildOptions() const {
  FeatureBuildOptions options;
  options.name = name_matcher_.options();
  options.context = options_;
  return options;
}

std::vector<std::string> ContextMatcher::NeighborhoodTerms(
    const Schema& schema, ElementId id) const {
  const auto features = BuildSchemaFeatures(schema, BuildOptions());
  std::vector<std::string> terms;
  const ClassTerms k = ClassOf(*features, features->neighborhood[id]);
  for (const uint32_t* t = k.begin; t != k.end; ++t) {
    terms.push_back(features->dictionary->term(features->terms[*t]).text);
  }
  return terms;
}

SimilarityMatrix ContextMatcher::MatchPrepared(
    const Schema& query, const Schema& candidate,
    const MatchContext& context) const {
  const SchemaFeatures& qf = *context.query_features;
  const SchemaFeatures& cf = *context.candidate_features;
  if (qf.neighborhood.size() != query.size() ||
      cf.neighborhood.size() != candidate.size() ||
      !SameOptions(qf.context_options, options_) ||
      !SameOptions(cf.context_options, options_) ||
      !SameOptions(qf.name_options, name_matcher_.options()) ||
      !SameOptions(cf.name_options, name_matcher_.options())) {
    return Match(query, candidate);
  }

  // Each value is a pure function of the two term lists, so it is
  // computed once per pair of classes and scattered to every element pair
  // whose neighborhoods they are.
  context.scratch->Bind(context);
  const size_t query_classes = qf.num_classes();
  const size_t cand_classes = cf.num_classes();
  std::vector<double> scores(query_classes * cand_classes);
  for (size_t i = 0; i < query_classes; ++i) {
    const ClassTerms a = ClassOf(qf, i);
    for (size_t j = 0; j < cand_classes; ++j) {
      const ClassTerms b = ClassOf(cf, j);
      scores[i * cand_classes + j] =
          options_.soft_alignment
              ? SoftJaccard(*context.scratch, name_matcher_,
                            options_.soft_threshold, a, b)
              : ExactJaccard(*context.scratch, a, b);
    }
  }
  SimilarityMatrix matrix(query.size(), candidate.size());
  for (size_t r = 0; r < query.size(); ++r) {
    const double* row = &scores[qf.neighborhood[r] * cand_classes];
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c, row[cf.neighborhood[c]]);
    }
  }
  return matrix;
}

SimilarityMatrix ContextMatcher::Match(const Schema& query,
                                       const Schema& candidate) const {
  return MatchStandalone(*this, query, candidate, BuildOptions());
}

}  // namespace schemr
