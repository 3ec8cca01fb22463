#include "match/context_matcher.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "match/features.h"
#include "schema/entity_graph.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace schemr {

namespace {

/// Adds the normalized word tokens of `name` into `terms`.
void AddTerms(const std::string& name, std::set<std::string>* terms) {
  for (const std::string& raw : TokenizeToStrings(name)) {
    terms->insert(PorterStem(ToLowerAscii(raw)));
  }
}

/// Shared per-Match() scratch: n-gram profiles for every distinct term
/// and memoized pairwise word similarities. Soft alignment compares the
/// same small vocabulary of terms over and over; without this cache the
/// context matcher is two orders of magnitude slower than the name
/// matcher.
struct SimilarityCache {
  const NameMatcher* name_matcher;
  std::unordered_map<std::string, NgramProfile> profiles;
  std::unordered_map<std::string, double> pair_scores;

  void AddTermsOf(const std::vector<std::string>& terms) {
    for (const std::string& term : terms) {
      if (!profiles.count(term)) {
        profiles.emplace(term, name_matcher->WordProfile(term));
      }
    }
  }

  double Similarity(const std::string& a, const std::string& b) {
    if (a == b) return 1.0;
    std::string key = a <= b ? a + '\x01' + b : b + '\x01' + a;
    auto it = pair_scores.find(key);
    if (it != pair_scores.end()) return it->second;
    double score = name_matcher->NormalizedWordSimilarity(
        a, profiles.at(a), b, profiles.at(b));
    pair_scores.emplace(std::move(key), score);
    return score;
  }
};

}  // namespace

std::vector<std::string> ContextMatcher::NeighborhoodTerms(
    const Schema& schema, ElementId id) const {
  EntityGraph graph(schema);
  return NeighborhoodTermsWithGraph(schema, graph, id);
}

std::vector<std::string> ContextMatcher::NeighborhoodTermsWithGraph(
    const Schema& schema, const EntityGraph& graph, ElementId id) const {
  std::set<std::string> terms;
  const Element& element = schema.element(id);
  AddTerms(element.name, &terms);

  // Parent and siblings.
  if (element.parent != kNoElement) {
    AddTerms(schema.element(element.parent).name, &terms);
    for (ElementId sibling : schema.Children(element.parent)) {
      if (sibling != id) AddTerms(schema.element(sibling).name, &terms);
    }
  }
  // Children.
  for (ElementId child : schema.Children(id)) {
    AddTerms(schema.element(child).name, &terms);
  }
  // FK-linked entities of the containing entity.
  if (options_.include_fk_neighbors) {
    ElementId entity = schema.EntityOf(id);
    if (entity != kNoElement) {
      for (ElementId neighbor : graph.Neighbors(entity)) {
        AddTerms(schema.element(neighbor).name, &terms);
      }
    }
  }
  return std::vector<std::string>(terms.begin(), terms.end());
}

double ContextMatcher::TermSetSimilarity(
    const std::vector<std::string>& a,
    const std::vector<std::string>& b) const {
  if (a.empty() || b.empty()) return 0.0;
  if (!options_.soft_alignment) {
    // Exact Jaccard on sorted unique term vectors.
    size_t i = 0, j = 0, inter = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) {
        ++inter;
        ++i;
        ++j;
      } else if (a[i] < b[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return static_cast<double>(inter) /
           static_cast<double>(a.size() + b.size() - inter);
  }
  // Soft path without a shared cache (used by tests / one-off calls).
  SimilarityCache cache{&name_matcher_, {}, {}};
  cache.AddTermsOf(a);
  cache.AddTermsOf(b);
  return SoftTermSetSimilarity(a, b, &cache);
}

double ContextMatcher::SoftTermSetSimilarity(
    const std::vector<std::string>& a, const std::vector<std::string>& b,
    void* cache_ptr) const {
  SimilarityCache& cache = *static_cast<SimilarityCache*>(cache_ptr);
  // Soft Jaccard: each term aligns with its best counterpart; alignments
  // below the threshold contribute nothing.
  auto directional = [this, &cache](const std::vector<std::string>& from,
                                    const std::vector<std::string>& to) {
    double sum = 0.0;
    for (const std::string& t : from) {
      double best = 0.0;
      for (const std::string& u : to) {
        best = std::max(best, cache.Similarity(t, u));
        if (best >= 1.0) break;
      }
      if (best >= options_.soft_threshold) sum += best;
    }
    return sum;
  };
  double inter = (directional(a, b) + directional(b, a)) / 2.0;
  double uni = static_cast<double>(a.size() + b.size()) - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

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

/// Exact Jaccard of two classes, merged by term text: the legacy
/// TermSetSimilarity over sorted unique term vectors.
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

/// Exactly SoftTermSetSimilarity on two classes: directional
/// best-alignment sums (thresholded), iterated in the sorted term order
/// the legacy std::set produced, with pair scores from the memo.
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

SimilarityMatrix ContextMatcher::MatchPrepared(
    const Schema& query, const Schema& candidate,
    const MatchContext& context) const {
  const SchemaFeatures* qf = context.query_features;
  const SchemaFeatures* cf = context.candidate_features;
  // The term profiles in the catalog were built under the catalog's name
  // options; this matcher's internal NameMatcher is default-constructed,
  // so the fast path additionally requires default name banding.
  if (!context.complete() || qf->neighborhood.size() != query.size() ||
      cf->neighborhood.size() != candidate.size() ||
      !SameOptions(qf->context_options, options_) ||
      !SameOptions(cf->context_options, options_) ||
      !SameOptions(qf->name_options, name_matcher_.options()) ||
      !SameOptions(cf->name_options, name_matcher_.options())) {
    return Match(query, candidate);
  }

  // Each value is a pure function of the two term lists, so it is
  // computed once per pair of classes and scattered to every element pair
  // whose neighborhoods they are.
  context.scratch->Bind(context);
  const size_t query_classes = qf->num_classes();
  const size_t cand_classes = cf->num_classes();
  std::vector<double> scores(query_classes * cand_classes);
  for (size_t i = 0; i < query_classes; ++i) {
    const ClassTerms a = ClassOf(*qf, i);
    for (size_t j = 0; j < cand_classes; ++j) {
      const ClassTerms b = ClassOf(*cf, j);
      scores[i * cand_classes + j] =
          options_.soft_alignment
              ? SoftJaccard(*context.scratch, name_matcher_,
                            options_.soft_threshold, a, b)
              : ExactJaccard(*context.scratch, a, b);
    }
  }
  SimilarityMatrix matrix(query.size(), candidate.size());
  for (size_t r = 0; r < query.size(); ++r) {
    const double* row = &scores[qf->neighborhood[r] * cand_classes];
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c, row[cf->neighborhood[c]]);
    }
  }
  return matrix;
}

SimilarityMatrix ContextMatcher::Match(const Schema& query,
                                       const Schema& candidate) const {
  SimilarityMatrix matrix(query.size(), candidate.size());
  std::vector<std::vector<std::string>> query_ctx(query.size());
  std::vector<std::vector<std::string>> cand_ctx(candidate.size());
  EntityGraph query_graph(query);
  EntityGraph cand_graph(candidate);
  for (ElementId id = 0; id < query.size(); ++id) {
    query_ctx[id] = NeighborhoodTermsWithGraph(query, query_graph, id);
  }
  for (ElementId id = 0; id < candidate.size(); ++id) {
    cand_ctx[id] = NeighborhoodTermsWithGraph(candidate, cand_graph, id);
  }

  if (!options_.soft_alignment) {
    for (size_t r = 0; r < query.size(); ++r) {
      for (size_t c = 0; c < candidate.size(); ++c) {
        matrix.set(r, c, TermSetSimilarity(query_ctx[r], cand_ctx[c]));
      }
    }
    return matrix;
  }

  // One shared cache across all element pairs of this schema pair:
  // neighborhoods overlap heavily, so profiles and pair scores amortize.
  SimilarityCache cache{&name_matcher_, {}, {}};
  for (const auto& terms : query_ctx) cache.AddTermsOf(terms);
  for (const auto& terms : cand_ctx) cache.AddTermsOf(terms);
  for (size_t r = 0; r < query.size(); ++r) {
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c,
                 SoftTermSetSimilarity(query_ctx[r], cand_ctx[c], &cache));
    }
  }
  return matrix;
}

}  // namespace schemr
