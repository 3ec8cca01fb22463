#include "match/name_matcher.h"

#include <algorithm>

#include "match/features.h"
#include "text/lexicon.h"

namespace schemr {

namespace {

/// True if `needle` is a subsequence of `haystack` sharing its first
/// character ("qty" ⊑ "quantity", "ht" ⊑ "height") -- the shape of
/// consonant-skeleton abbreviations.
bool IsAbbreviationSubsequence(const std::string& needle,
                               const std::string& haystack) {
  if (needle.empty() || haystack.empty() || needle[0] != haystack[0]) {
    return false;
  }
  // Stemming rewrites y→i ("quantity" → "quantiti") but leaves vowel-free
  // abbreviations like "qty" untouched; fold the two together here.
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

/// Words of a prepared name, as vocabulary indices.
struct Words {
  const uint32_t* begin;
  uint32_t size;
};

Words WordsOf(const SchemaFeatures& features, const NameFeature& name) {
  return {features.name_words.data() + name.first_word, name.num_words};
}

/// `single` is one word spelling the initials of the multi-word `multi`
/// ("dob" vs date_of_birth), read off the words' texts.
template <typename SingleText, typename MultiText>
bool IsAcronym(Words single, SingleText single_text, Words multi,
               MultiText multi_text) {
  if (single.size != 1 || multi.size < 2) return false;
  const std::string& word = single_text(single.begin[0]);
  if (word.size() != multi.size) return false;
  for (uint32_t k = 0; k < multi.size; ++k) {
    if (word[k] != multi_text(multi.begin[k])[0]) return false;
  }
  return true;
}

/// Name-vs-name similarity on NameFeatures: every word finds its best
/// counterpart and the two directional sums combine into a generalized
/// Dice; the concatenated names and acronyms can only raise it. Sums
/// iterate words in name order, which fixes the floating-point result.
double PreparedPairSimilarity(const NameMatcher& matcher, const MatchContext& context,
                      const NameFeature& a, const NameFeature& b) {
  const Words qa = WordsOf(*context.query_features, a);
  const Words cb = WordsOf(*context.candidate_features, b);
  if (qa.size == 0 || cb.size == 0) return 0.0;
  MatchScratch& memo = *context.scratch;

  double sum_a = 0.0;
  for (uint32_t i = 0; i < qa.size; ++i) {
    double best = 0.0;
    for (uint32_t j = 0; j < cb.size; ++j) {
      best = std::max(best, memo.Similarity(matcher, qa.begin[i], cb.begin[j]));
    }
    sum_a += best;
  }
  double sum_b = 0.0;
  for (uint32_t j = 0; j < cb.size; ++j) {
    double best = 0.0;
    for (uint32_t i = 0; i < qa.size; ++i) {
      best = std::max(best, memo.Similarity(matcher, qa.begin[i], cb.begin[j]));
    }
    sum_b += best;
  }
  double score = (sum_a + sum_b) / static_cast<double>(qa.size + cb.size);

  score = std::max(score, memo.Similarity(matcher, a.concat, b.concat));

  auto query_text = [&memo](uint32_t q) -> const std::string& {
    return memo.QueryText(q);
  };
  auto candidate_text = [&memo](uint32_t c) -> const std::string& {
    return memo.CandidateText(c);
  };
  if (IsAcronym(qa, query_text, cb, candidate_text) ||
      IsAcronym(cb, candidate_text, qa, query_text)) {
    score = std::max(score, 0.8);
  }
  return score;
}

}  // namespace

NgramProfile NameMatcher::WordProfile(const std::string& word) const {
  NgramProfile profile;
  if (options_.exhaustive_ngrams) {
    profile = BuildNgramProfile(word, 1, word.size());
  } else {
    profile = BuildNgramProfile(word, options_.min_n, options_.max_n);
    // Always include the whole word so exact matches of short words score.
    ++profile[word];
  }
  return profile;
}

double NameMatcher::PreparedWordSimilarity(const TermFeature& a,
                                           const TermFeature& b) const {
  double dice = PackedDice(a.profile, b.profile);
  const std::string& shorter = a.text.size() <= b.text.size() ? a.text : b.text;
  const std::string& longer = a.text.size() <= b.text.size() ? b.text : a.text;
  if (shorter.size() >= 2 && shorter.size() < longer.size()) {
    double coverage = static_cast<double>(shorter.size()) /
                      static_cast<double>(longer.size());
    if (longer.compare(0, shorter.size(), shorter) == 0) {
      // Prefix abbreviations ("pat" for "patient", "obs" for
      // "observation") share few long grams, so pure Dice under-scores
      // exactly the case the paper highlights.
      dice = std::max(dice, 0.55 + 0.45 * coverage);
    } else if (IsAbbreviationSubsequence(shorter, longer)) {
      // Consonant-skeleton abbreviations ("qty" for "quantity", "ht" for
      // "height"): weaker evidence than a prefix, still far above random
      // gram overlap.
      dice = std::max(dice, 0.35 + 0.35 * coverage);
    }
  }
  // Synonyms (gender↔sex) share no grams at all; only the lexicon can
  // recover them.
  if (options_.use_synonyms && dice < 0.85 && AreSynonyms(a.text, b.text)) {
    dice = 0.85;
  }
  return dice;
}

SimilarityMatrix NameMatcher::MatchPrepared(const Schema& query,
                                            const Schema& candidate,
                                            const MatchContext& context) const {
  const SchemaFeatures& qf = *context.query_features;
  const SchemaFeatures& cf = *context.candidate_features;
  if (qf.names.size() != query.size() || cf.names.size() != candidate.size() ||
      !SameOptions(qf.name_options, options_) ||
      !SameOptions(cf.name_options, options_)) {
    return Match(query, candidate);
  }
  context.scratch->Bind(context);
  SimilarityMatrix matrix(query.size(), candidate.size());
  for (size_t r = 0; r < query.size(); ++r) {
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c, PreparedPairSimilarity(*this, context, qf.names[r],
                                      cf.names[c]));
    }
  }
  return matrix;
}

SimilarityMatrix NameMatcher::Match(const Schema& query,
                                    const Schema& candidate) const {
  FeatureBuildOptions options;
  options.name = options_;
  return MatchStandalone(*this, query, candidate, options);
}

double NameMatcher::NameSimilarity(const std::string& a,
                                   const std::string& b) const {
  Schema left;
  left.AddEntity(a);
  Schema right;
  right.AddEntity(b);
  return Match(left, right).at(0, 0);
}

}  // namespace schemr
