// The matcher interface of the match engine.
//
// A matcher compares a query (itself represented as a schema: fragment
// trees plus keyword elements, see core/query_graph.h) against one
// candidate schema and emits a SimilarityMatrix. Matchers are composed by
// MatcherEnsemble; the paper highlights the name and context matchers but
// notes "other matchers may be used as well" -- we also provide data-type
// and structural matchers.

#ifndef SCHEMR_MATCH_MATCHER_H_
#define SCHEMR_MATCH_MATCHER_H_

#include <string>

#include "match/similarity_matrix.h"
#include "schema/schema.h"

namespace schemr {

struct SchemaFeatures;  // match/features.h
class TermDictionary;   // match/features.h
class MatchScratch;     // match/features.h

/// Precomputed inputs for one ensemble invocation: the columnar features
/// of both schemas (built at index time / once per query), the
/// dictionaries their term ids resolve in, and the per-query term-pair
/// memo. Any pointer may be null -- a matcher that cannot use what it is
/// given falls back to its Match() path.
struct MatchContext {
  const SchemaFeatures* query_features = nullptr;
  const TermDictionary* query_terms = nullptr;
  const SchemaFeatures* candidate_features = nullptr;
  const TermDictionary* candidate_terms = nullptr;
  MatchScratch* scratch = nullptr;

  bool complete() const {
    return query_features != nullptr && query_terms != nullptr &&
           candidate_features != nullptr && candidate_terms != nullptr &&
           scratch != nullptr;
  }
};

/// Abstract element-level schema matcher.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Stable identifier used for weights, feature names and reports.
  virtual std::string Name() const = 0;

  /// Computes the |query| × |candidate| similarity matrix. All values must
  /// land in [0, 1] (SimilarityMatrix::set clamps as a backstop).
  virtual SimilarityMatrix Match(const Schema& query,
                                 const Schema& candidate) const = 0;

  /// Match() with precomputed features. The default ignores the context;
  /// matchers with a columnar fast path (name, context) override this and
  /// MUST produce a bit-identical matrix to Match() — the fast path is a
  /// latency optimization, never a scoring change (DESIGN.md §16).
  virtual SimilarityMatrix MatchPrepared(const Schema& query,
                                         const Schema& candidate,
                                         const MatchContext&) const {
    return Match(query, candidate);
  }
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_MATCHER_H_
