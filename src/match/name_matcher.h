// Name matcher: normalized n-gram overlap between element names.
//
// "A name matcher normalizes terms and computes n-gram overlap between
// query terms and terms in the indexed schemas. ... We found this matcher
// to be particularly helpful for properly ranking schemas containing
// abbreviated terms, alternate grammatical forms, and delimiter characters
// not in the original query." (paper Sec. 2)
//
// Normalization lowercases and strips delimiters/case structure via the
// shared tokenizer, then the similarity of two names is the Dice
// coefficient over their character n-gram multisets. With the exhaustive
// profile (n = 1..len, the paper's formulation) a strict-prefix
// abbreviation like "pat" vs "patient" still shares a large mass of
// grams; the banded profile (default 2..4 plus the whole token) is the
// cheaper production variant. Word-level maximum alignment handles
// multi-word names.

#ifndef SCHEMR_MATCH_NAME_MATCHER_H_
#define SCHEMR_MATCH_NAME_MATCHER_H_

#include <string>
#include <vector>

#include "match/matcher.h"
#include "text/ngram.h"

namespace schemr {

struct NameMatcherOptions {
  /// Use n = 1..len(word) profiles exactly as described in the paper.
  /// Otherwise the banded profile [min_n, max_n] (+ whole word) is used.
  bool exhaustive_ngrams = false;
  size_t min_n = 2;
  size_t max_n = 4;
  /// Apply Porter stemming during normalization (conflates grammatical
  /// forms before gram extraction).
  bool stem = true;
  /// Consult the synonym lexicon: known pairs like gender↔sex (which
  /// share no character grams) score 0.85 at word level.
  bool use_synonyms = true;
};

/// Element-name similarity via character n-gram overlap.
class NameMatcher : public Matcher {
 public:
  explicit NameMatcher(NameMatcherOptions options = {}) : options_(options) {}

  std::string Name() const override { return "name"; }

  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override;

  /// Columnar fast path: scores from precomputed SchemaFeatures through
  /// the per-query term-pair memo. Bit-identical to Match() — the packed
  /// Dice reproduces the NgramProfile counts exactly and the word
  /// alignment sums run in the same order. Falls back to Match() when the
  /// context is incomplete or was built under different options.
  SimilarityMatrix MatchPrepared(const Schema& query, const Schema& candidate,
                                 const MatchContext& context) const override;

  /// Similarity of two raw element names in [0, 1] (exposed for the
  /// context matcher's soft term alignment and for tests).
  double NameSimilarity(const std::string& a, const std::string& b) const;

  /// WordSimilarity on packed term features: packed Dice lifted by the
  /// same prefix/subsequence/synonym bonuses. Equals
  /// NormalizedWordSimilarity on the profiles the features were packed
  /// from. Exposed for the term-pair memo both fast paths share
  /// (MatchScratch).
  double PreparedWordSimilarity(const struct TermFeature& a,
                                const struct TermFeature& b) const;

  const NameMatcherOptions& options() const { return options_; }

  /// N-gram profile of one already-normalized word, honoring this
  /// matcher's banding options. Exposed so callers comparing many word
  /// pairs (the context matcher) can cache profiles.
  NgramProfile WordProfile(const std::string& word) const;

  /// Single-word similarity on precomputed profiles: n-gram Dice lifted
  /// by prefix/subsequence abbreviation bonuses. Words must already be
  /// normalized (lowercase, stemmed).
  double NormalizedWordSimilarity(const std::string& a,
                                  const NgramProfile& pa,
                                  const std::string& b,
                                  const NgramProfile& pb) const;

 private:
  /// Per-name precomputation shared by NameSimilarity and Match.
  struct PreparedName {
    std::vector<std::string> words;
    std::vector<NgramProfile> word_profiles;
    std::string concat;
    NgramProfile concat_profile;
    std::string initials;
  };

  /// Normalized word list of an element name.
  std::vector<std::string> NormalizeName(const std::string& name) const;

  NgramProfile ProfileOf(const std::string& word) const;

  PreparedName Prepare(const std::string& name) const;

  /// Single-word similarity: n-gram Dice, lifted by prefix-abbreviation
  /// ("pat" vs "patient") and subsequence-abbreviation ("qty" vs
  /// "quantity") bonuses scaled by the length ratio.
  double WordSimilarity(const std::string& a, const NgramProfile& pa,
                        const std::string& b, const NgramProfile& pb) const;

  /// The post-Dice half of WordSimilarity (prefix / subsequence / synonym
  /// lifts), shared with the packed fast path so the two can never drift.
  double LiftDice(double dice, const std::string& a,
                  const std::string& b) const;

  /// Full name-vs-name similarity on prepared forms: word alignment,
  /// concatenation rescue, acronym detection ("dob" vs "date_of_birth").
  double PairSimilarity(const PreparedName& a, const PreparedName& b) const;

  NameMatcherOptions options_;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_NAME_MATCHER_H_
