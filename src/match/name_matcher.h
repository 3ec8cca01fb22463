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
//
// Scoring runs on columnar SchemaFeatures (match/features.h): normalized
// words and packed profiles are built once per schema, and word-pair
// similarities come from the per-query memo (MatchScratch).

#ifndef SCHEMR_MATCH_NAME_MATCHER_H_
#define SCHEMR_MATCH_NAME_MATCHER_H_

#include <string>

#include "match/matcher.h"
#include "text/ngram.h"

namespace schemr {

struct TermFeature;  // match/features.h

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

  /// Builds standalone features for both schemas under this matcher's
  /// options and scores them with MatchPrepared.
  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override;

  /// Scores precomputed SchemaFeatures through the per-query term-pair
  /// memo: per element pair, word-level soft alignment, concatenation
  /// rescue ("dateofbirth" vs "date_of_birth") and acronym detection
  /// ("dob"). Features built under other options, or for other schemas,
  /// are never used: Match() builds them under this matcher's options.
  SimilarityMatrix MatchPrepared(const Schema& query, const Schema& candidate,
                                 const MatchContext& context) const override;

  /// Similarity of two raw element names in [0, 1]: the Match() value of
  /// two one-element schemas (exposed for tests and benches).
  double NameSimilarity(const std::string& a, const std::string& b) const;

  /// Single-word similarity on packed term features: n-gram Dice lifted
  /// by prefix-abbreviation ("pat" vs "patient"), subsequence-abbreviation
  /// ("qty" vs "quantity") and synonym bonuses. Exposed for the term-pair
  /// memo the name and context matchers share (MatchScratch).
  double PreparedWordSimilarity(const TermFeature& a,
                                const TermFeature& b) const;

  const NameMatcherOptions& options() const { return options_; }

  /// N-gram profile of one already-normalized word, honoring this
  /// matcher's banding options: the source of every TermDictionary
  /// profile.
  NgramProfile WordProfile(const std::string& word) const;

 private:
  NameMatcherOptions options_;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_NAME_MATCHER_H_
