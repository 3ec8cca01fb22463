#include "reference_matchers.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>

#include "match/structure_matcher.h"
#include "match/type_matcher.h"
#include "schema/entity_graph.h"
#include "text/lexicon.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace schemr {

namespace {

/// True if `needle` is a subsequence of `haystack` sharing its first
/// character ("qty" in "quantity"), folding the stemmer's y→i rewrite.
bool IsAbbreviationSubsequence(const std::string& needle,
                               const std::string& haystack) {
  if (needle.empty() || haystack.empty() || needle[0] != haystack[0]) {
    return false;
  }
  auto fold = [](char c) { return c == 'y' ? 'i' : c; };
  size_t h = 0;
  for (char raw : needle) {
    char c = fold(raw);
    while (h < haystack.size() && fold(haystack[h]) != c) ++h;
    if (h == haystack.size()) return false;
    ++h;
  }
  return true;
}

/// Initials of a word list ("date","of","birth" → "dob").
std::string Initials(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (!word.empty()) out += word[0];
  }
  return out;
}

/// Adds the normalized word tokens of `name` into `terms`.
void AddTerms(const std::string& name, std::set<std::string>* terms) {
  for (const std::string& raw : TokenizeToStrings(name)) {
    terms->insert(PorterStem(ToLowerAscii(raw)));
  }
}

/// Per-Match() profiles of every distinct term and memoized word-pair
/// similarities.
struct SimilarityCache {
  const ReferenceNameMatcher* name_matcher;
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
    double score = name_matcher->WordSimilarity(a, profiles.at(a), b,
                                                profiles.at(b));
    pair_scores.emplace(std::move(key), score);
    return score;
  }
};

/// Soft Jaccard: each term aligns with its best counterpart; alignments
/// below the threshold contribute nothing.
double SoftTermSetSimilarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b,
                             double threshold, SimilarityCache* cache) {
  auto directional = [threshold, cache](const std::vector<std::string>& from,
                                        const std::vector<std::string>& to) {
    double sum = 0.0;
    for (const std::string& t : from) {
      double best = 0.0;
      for (const std::string& u : to) {
        best = std::max(best, cache->Similarity(t, u));
        if (best >= 1.0) break;
      }
      if (best >= threshold) sum += best;
    }
    return sum;
  };
  double inter = (directional(a, b) + directional(b, a)) / 2.0;
  double uni = static_cast<double>(a.size() + b.size()) - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

}  // namespace

// --- name -------------------------------------------------------------------

std::vector<std::string> ReferenceNameMatcher::NormalizeName(
    const std::string& name) const {
  std::vector<std::string> words;
  for (const std::string& raw : TokenizeToStrings(name)) {
    std::string word = ToLowerAscii(raw);
    if (options_.stem) word = PorterStem(word);
    if (!word.empty()) words.push_back(std::move(word));
  }
  return words;
}

NgramProfile ReferenceNameMatcher::WordProfile(const std::string& word) const {
  NgramProfile profile;
  if (options_.exhaustive_ngrams) {
    profile = BuildNgramProfile(word, 1, word.size());
  } else {
    profile = BuildNgramProfile(word, options_.min_n, options_.max_n);
    ++profile[word];
  }
  return profile;
}

double ReferenceNameMatcher::WordSimilarity(const std::string& a,
                                            const NgramProfile& pa,
                                            const std::string& b,
                                            const NgramProfile& pb) const {
  double dice = DiceSimilarity(pa, pb);
  const std::string& shorter = a.size() <= b.size() ? a : b;
  const std::string& longer = a.size() <= b.size() ? b : a;
  if (shorter.size() >= 2 && shorter.size() < longer.size()) {
    double coverage = static_cast<double>(shorter.size()) /
                      static_cast<double>(longer.size());
    if (longer.compare(0, shorter.size(), shorter) == 0) {
      dice = std::max(dice, 0.55 + 0.45 * coverage);
    } else if (IsAbbreviationSubsequence(shorter, longer)) {
      dice = std::max(dice, 0.35 + 0.35 * coverage);
    }
  }
  if (options_.use_synonyms && dice < 0.85 && AreSynonyms(a, b)) {
    dice = 0.85;
  }
  return dice;
}

ReferenceNameMatcher::PreparedName ReferenceNameMatcher::Prepare(
    const std::string& name) const {
  PreparedName p;
  p.words = NormalizeName(name);
  for (const auto& w : p.words) p.word_profiles.push_back(WordProfile(w));
  p.concat = Join(p.words, "");
  p.concat_profile = WordProfile(p.concat);
  p.initials = Initials(p.words);
  return p;
}

double ReferenceNameMatcher::PairSimilarity(const PreparedName& a,
                                            const PreparedName& b) const {
  if (a.words.empty() || b.words.empty()) return 0.0;
  double sum_a = 0.0;
  for (size_t i = 0; i < a.words.size(); ++i) {
    double best = 0.0;
    for (size_t j = 0; j < b.words.size(); ++j) {
      best = std::max(best, WordSimilarity(a.words[i], a.word_profiles[i],
                                           b.words[j], b.word_profiles[j]));
    }
    sum_a += best;
  }
  double sum_b = 0.0;
  for (size_t j = 0; j < b.words.size(); ++j) {
    double best = 0.0;
    for (size_t i = 0; i < a.words.size(); ++i) {
      best = std::max(best, WordSimilarity(a.words[i], a.word_profiles[i],
                                           b.words[j], b.word_profiles[j]));
    }
    sum_b += best;
  }
  double score = (sum_a + sum_b) /
                 static_cast<double>(a.words.size() + b.words.size());
  score = std::max(score, WordSimilarity(a.concat, a.concat_profile,
                                         b.concat, b.concat_profile));
  auto acronym = [](const PreparedName& single, const PreparedName& multi) {
    return single.words.size() == 1 && multi.words.size() >= 2 &&
           single.words[0] == multi.initials;
  };
  if (acronym(a, b) || acronym(b, a)) score = std::max(score, 0.8);
  return score;
}

double ReferenceNameMatcher::NameSimilarity(const std::string& a,
                                            const std::string& b) const {
  return PairSimilarity(Prepare(a), Prepare(b));
}

SimilarityMatrix ReferenceNameMatcher::Match(const Schema& query,
                                             const Schema& candidate) const {
  SimilarityMatrix matrix(query.size(), candidate.size());
  std::vector<PreparedName> qs(query.size());
  std::vector<PreparedName> cs(candidate.size());
  for (ElementId id = 0; id < query.size(); ++id) {
    qs[id] = Prepare(query.element(id).name);
  }
  for (ElementId id = 0; id < candidate.size(); ++id) {
    cs[id] = Prepare(candidate.element(id).name);
  }
  for (size_t r = 0; r < qs.size(); ++r) {
    for (size_t c = 0; c < cs.size(); ++c) {
      matrix.set(r, c, PairSimilarity(qs[r], cs[c]));
    }
  }
  return matrix;
}

// --- context ----------------------------------------------------------------

std::vector<std::string> ReferenceContextMatcher::NeighborhoodTerms(
    const Schema& schema, ElementId id) const {
  EntityGraph graph(schema);
  return NeighborhoodTermsWithGraph(schema, graph, id);
}

std::vector<std::string> ReferenceContextMatcher::NeighborhoodTermsWithGraph(
    const Schema& schema, const EntityGraph& graph, ElementId id) const {
  std::set<std::string> terms;
  const Element& element = schema.element(id);
  AddTerms(element.name, &terms);
  if (element.parent != kNoElement) {
    AddTerms(schema.element(element.parent).name, &terms);
    for (ElementId sibling : schema.Children(element.parent)) {
      if (sibling != id) AddTerms(schema.element(sibling).name, &terms);
    }
  }
  for (ElementId child : schema.Children(id)) {
    AddTerms(schema.element(child).name, &terms);
  }
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

double ReferenceContextMatcher::ExactJaccard(
    const std::vector<std::string>& a,
    const std::vector<std::string>& b) const {
  if (a.empty() || b.empty()) return 0.0;
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

SimilarityMatrix ReferenceContextMatcher::Match(
    const Schema& query, const Schema& candidate) const {
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
        matrix.set(r, c, ExactJaccard(query_ctx[r], cand_ctx[c]));
      }
    }
    return matrix;
  }
  // One cache across all element pairs of this schema pair.
  SimilarityCache cache{&name_matcher_, {}, {}};
  for (const auto& terms : query_ctx) cache.AddTermsOf(terms);
  for (const auto& terms : cand_ctx) cache.AddTermsOf(terms);
  for (size_t r = 0; r < query.size(); ++r) {
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c,
                 SoftTermSetSimilarity(query_ctx[r], cand_ctx[c],
                                       options_.soft_threshold, &cache));
    }
  }
  return matrix;
}

MatcherEnsemble ReferenceEnsemble() {
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<ReferenceNameMatcher>(), 1.0);
  ensemble.AddMatcher(std::make_unique<ReferenceContextMatcher>(), 1.0);
  ensemble.AddMatcher(std::make_unique<TypeMatcher>(), 0.25);
  ensemble.AddMatcher(std::make_unique<StructureMatcher>(), 0.25);
  return ensemble;
}

}  // namespace schemr
