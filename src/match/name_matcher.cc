#include "match/name_matcher.h"

#include <algorithm>
#include <cmath>

#include "match/features.h"
#include "text/lexicon.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

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

/// Initials of a word list ("date","of","birth" → "dob").
std::string Initials(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (!word.empty()) out += word[0];
  }
  return out;
}

}  // namespace

std::vector<std::string> NameMatcher::NormalizeName(
    const std::string& name) const {
  std::vector<std::string> words;
  for (const std::string& raw : TokenizeToStrings(name)) {
    std::string word = ToLowerAscii(raw);
    if (options_.stem) word = PorterStem(word);
    if (!word.empty()) words.push_back(std::move(word));
  }
  return words;
}

NgramProfile NameMatcher::ProfileOf(const std::string& word) const {
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

double NameMatcher::WordSimilarity(const std::string& a,
                                   const NgramProfile& pa,
                                   const std::string& b,
                                   const NgramProfile& pb) const {
  return LiftDice(DiceSimilarity(pa, pb), a, b);
}

double NameMatcher::LiftDice(double dice, const std::string& a,
                             const std::string& b) const {
  const std::string& shorter = a.size() <= b.size() ? a : b;
  const std::string& longer = a.size() <= b.size() ? b : a;
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
  if (options_.use_synonyms && dice < 0.85 && AreSynonyms(a, b)) {
    dice = 0.85;
  }
  return dice;
}

NameMatcher::PreparedName NameMatcher::Prepare(const std::string& name) const {
  PreparedName p;
  p.words = NormalizeName(name);
  for (const auto& w : p.words) p.word_profiles.push_back(ProfileOf(w));
  p.concat = Join(p.words, "");
  p.concat_profile = ProfileOf(p.concat);
  p.initials = Initials(p.words);
  return p;
}

double NameMatcher::PairSimilarity(const PreparedName& a,
                                   const PreparedName& b) const {
  if (a.words.empty() || b.words.empty()) return 0.0;

  // Word-level soft alignment: every word finds its best counterpart; the
  // two directional sums combine into a generalized Dice.
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

  // Concatenated comparison rescues cross-word grams ("dateofbirth" vs
  // "date_of_birth" tokenizations that differ in word splits).
  score = std::max(score, WordSimilarity(a.concat, a.concat_profile,
                                         b.concat, b.concat_profile));

  // Acronyms: a single short word equal to the other side's initials
  // ("dob" vs date_of_birth). Both directions.
  auto acronym = [](const PreparedName& single, const PreparedName& multi) {
    return single.words.size() == 1 && multi.words.size() >= 2 &&
           single.words[0] == multi.initials;
  };
  if (acronym(a, b) || acronym(b, a)) score = std::max(score, 0.8);

  return score;
}

double NameMatcher::NameSimilarity(const std::string& a,
                                   const std::string& b) const {
  return PairSimilarity(Prepare(a), Prepare(b));
}

NgramProfile NameMatcher::WordProfile(const std::string& word) const {
  return ProfileOf(word);
}

double NameMatcher::NormalizedWordSimilarity(const std::string& a,
                                             const NgramProfile& pa,
                                             const std::string& b,
                                             const NgramProfile& pb) const {
  return WordSimilarity(a, pa, b, pb);
}

double NameMatcher::PreparedWordSimilarity(const TermFeature& a,
                                           const TermFeature& b) const {
  return LiftDice(PackedDice(a.profile, b.profile), a.text, b.text);
}

namespace {

/// Words of a prepared name, as vocabulary indices.
struct Words {
  const uint32_t* begin;
  uint32_t size;
};

Words WordsOf(const SchemaFeatures& features, const NameFeature& name) {
  return {features.name_words.data() + name.first_word, name.num_words};
}

/// `single` is one word spelling the initials of the multi-word `multi`
/// ("dob" vs date_of_birth): the legacy acronym check, with initials read
/// off the words' texts instead of stored per name.
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

/// PairSimilarity on NameFeatures: the same word alignment, concat rescue
/// and acronym check, with word profiles and pair scores coming from the
/// per-query memo instead of per-candidate Prepare() calls. Sums iterate
/// words in name order -- the legacy FP summation order.
double PreparedPairSimilarity(const NameMatcher& matcher,
                              const MatchContext& context,
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

SimilarityMatrix NameMatcher::MatchPrepared(const Schema& query,
                                            const Schema& candidate,
                                            const MatchContext& context) const {
  const SchemaFeatures* qf = context.query_features;
  const SchemaFeatures* cf = context.candidate_features;
  if (!context.complete() || qf->names.size() != query.size() ||
      cf->names.size() != candidate.size() ||
      !SameOptions(qf->name_options, options_) ||
      !SameOptions(cf->name_options, options_)) {
    return Match(query, candidate);
  }
  context.scratch->Bind(context);
  SimilarityMatrix matrix(query.size(), candidate.size());
  for (size_t r = 0; r < query.size(); ++r) {
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c, PreparedPairSimilarity(*this, context, qf->names[r],
                                              cf->names[c]));
    }
  }
  return matrix;
}

SimilarityMatrix NameMatcher::Match(const Schema& query,
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

}  // namespace schemr
