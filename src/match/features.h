// Columnar match features: everything the name and context matchers need
// about one schema, precomputed at index time (DESIGN.md §16).
//
// Scoring a (query, candidate) pair straight from the two schemas means
// re-tokenizing, re-stemming and re-profiling every element name of BOTH
// schemas, and rebuilding two EntityGraphs and every neighborhood term
// set, for every pair -- which is what the reference matchers in
// tests/reference_matchers.h still do. This module moves all of it to
// index time, and stores what schemas share only once:
//
//   - one corpus-wide TermDictionary: each distinct term's text and
//     packed n-gram profile, stored once and referred to by id. Grams of
//     <= 7 bytes pack bijectively into a uint64 (length byte +
//     characters), so profile intersection is a sorted-array merge over
//     integers, the merged counts equal the NgramProfile counts, and the
//     Dice similarity is bit-identical to DiceSimilarity;
//   - per schema, a vocabulary of dictionary ids sorted by term text;
//     names and neighborhoods refer to terms by their index in it, so
//     index order is text order and floating-point sums run in the
//     reference's (std::set) order;
//   - per element, the prepared name (word and concat indices);
//   - the schema's distinct neighborhoods as classes (sorted term lists)
//     plus a class id per element: all attributes of a table share one
//     neighborhood, so the context matcher scores each pair of classes
//     once instead of each pair of elements;
//   - per element, its entity's FK component, so phase 3 never builds an
//     EntityGraph at query time;
//   - the schema's SchemaSignature (256-bit SimHash + MinHash sketch),
//     IDF-weighted from the catalog-wide document-frequency table.
//
// A MatchFeatureCatalog is immutable and rides inside a CorpusSnapshot,
// so copy-on-write publication and result-cache keying cover it with no
// new machinery; ServingCorpus extends the dictionary copy-on-write, so a
// published snapshot never sees a mutation. At query time MatchScratch
// memoizes term-pair similarities per query across every candidate a
// scoring worker visits. Matchers verify that features were built with
// their exact options and build their own (MatchStandalone) otherwise.

#ifndef SCHEMR_MATCH_FEATURES_H_
#define SCHEMR_MATCH_FEATURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "match/context_matcher.h"
#include "match/name_matcher.h"
#include "match/signature.h"
#include "schema/schema.h"
#include "util/status.h"

namespace schemr {

/// An NgramProfile flattened into sorted arrays. Grams of at most 7 bytes
/// (every banded gram of lowercase ASCII words, and most whole words)
/// pack exactly — length byte in the top 8 bits, characters below — so
/// equality of packed keys IS equality of grams. Longer grams (whole-word
/// or concat grams past 7 chars) keep their strings in `overflow`;
/// both arrays are sorted, and intersection is a two-pointer merge.
struct PackedProfile {
  std::vector<std::pair<uint64_t, uint32_t>> packed;        // sorted by key
  std::vector<std::pair<std::string, uint32_t>> overflow;   // sorted by gram
  /// Total gram count (the multiset size |A| in Dice).
  uint64_t total = 0;
};

/// Flattens `profile`; counts carry over unchanged.
PackedProfile PackProfile(const NgramProfile& profile);

/// Dice coefficient over two packed profiles. Equals
/// DiceSimilarity(a', b') on the NgramProfiles they were packed from,
/// bit-for-bit: the packing is bijective, so intersection and sizes are
/// the same integers and the final division is the same expression.
double PackedDice(const PackedProfile& a, const PackedProfile& b);

/// One interned term: its normalized text and n-gram profile.
struct TermFeature {
  std::string text;        ///< normalized (lowercased, stemmed) term
  PackedProfile profile;   ///< n-gram profile under the build options
};

/// Interned terms with dense ids. Ids are append-only: an id, once
/// assigned, names the same term in this dictionary and in every copy
/// extended from it. Copies keep the lineage of their source, so
/// lineage() identifies an id space, never a particular object.
class TermDictionary {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  /// An empty dictionary with a fresh lineage.
  TermDictionary();

  /// The id of `text`, or kNotFound.
  uint32_t Find(const std::string& text) const;

  /// The id of `text`, appending it (profiled by `profiler`) when new.
  uint32_t Intern(const std::string& text, const NameMatcher& profiler);

  const TermFeature& term(uint32_t id) const { return terms_[id]; }
  size_t size() const { return terms_.size(); }
  uint64_t lineage() const { return lineage_; }

 private:
  std::vector<TermFeature> terms_;
  std::unordered_map<std::string, uint32_t> ids_;
  uint64_t lineage_;
};

/// One element's prepared name. Words and the concat are indices into
/// SchemaFeatures::terms.
struct NameFeature {
  uint32_t first_word = 0;  ///< offset into SchemaFeatures::name_words
  uint32_t num_words = 0;
  uint32_t concat = 0;      ///< the concatenated words
};

/// The options features were built under. Matchers compare these against
/// their own options before scoring them.
struct FeatureBuildOptions {
  NameMatcherOptions name;
  ContextMatcherOptions context;
};

bool SameOptions(const NameMatcherOptions& a, const NameMatcherOptions& b);
bool SameOptions(const ContextMatcherOptions& a, const ContextMatcherOptions& b);

/// Everything precomputed about one schema. Immutable once built.
struct SchemaFeatures {
  /// The schema's vocabulary: every name word, concatenated name and
  /// context term, as dictionary ids sorted by term text. The fields
  /// below refer to terms by their index in this list, so ascending
  /// index order is text order.
  std::vector<uint32_t> terms;
  /// Per element id: the prepared name.
  std::vector<NameFeature> names;
  /// Every name's words, in element order and name order.
  std::vector<uint32_t> name_words;
  /// Distinct neighborhoods ("classes"): class k's term indices,
  /// ascending (text order, which fixes FP summation order), are
  /// class_terms[class_offsets[k] .. class_offsets[k + 1]).
  std::vector<uint32_t> class_terms;
  std::vector<uint32_t> class_offsets{0};
  /// Per element id: the class of its neighborhood.
  std::vector<uint32_t> neighborhood;
  /// Per element id: the connected component of an entity in the schema's
  /// FK/containment graph (ComponentsByElement), which phase 3's
  /// tightness-of-fit reads.
  std::vector<uint32_t> component;
  /// Screening signature (sealed: VerifySignature holds).
  SchemaSignature signature;
  /// Deterministic hash of the schema's matcher-visible content; keys the
  /// persisted-signature cache.
  uint64_t content_hash = 0;
  /// Identity of this feature set, unique for the life of the process
  /// (never recycled, unlike an address); keys the pair memo's rows.
  uint64_t serial = 0;
  /// The private dictionary `terms` resolve in, for a standalone build.
  /// Null inside a catalog, whose features all resolve in
  /// MatchFeatureCatalog::terms().
  std::shared_ptr<const TermDictionary> dictionary;
  /// The options this was built under (copied per schema so a matcher can
  /// check compatibility without reaching back to the catalog).
  NameMatcherOptions name_options;
  ContextMatcherOptions context_options;

  size_t num_classes() const { return class_offsets.size() - 1; }
};

/// Document frequencies over one dictionary's id space: df(term) =
/// schemas whose vocabulary contains the term, a flat array indexed by
/// term id. Feeds IDF weights into SimHash bit votes (rare,
/// discriminative terms dominate the signature). Advisory only -- no
/// matcher score reads it.
class DfTable {
 public:
  explicit DfTable(std::shared_ptr<const TermDictionary> terms =
                       std::make_shared<const TermDictionary>());

  /// The dictionary the table's ids belong to.
  const std::shared_ptr<const TermDictionary>& terms() const {
    return terms_;
  }
  /// Moves the table onto an extension of its dictionary (same lineage;
  /// every counted id keeps its meaning).
  void ExtendTerms(std::shared_ptr<const TermDictionary> terms);

  /// `features`' term ids must resolve in terms().
  void AddDocument(const SchemaFeatures& features);
  void RemoveDocument(const SchemaFeatures& features);

  uint64_t documents() const { return documents_; }
  uint32_t Df(uint32_t term) const {
    return term < df_.size() ? df_[term] : 0;
  }

  /// log(1 + N / (1 + df)): always positive, larger for rarer terms.
  double Idf(uint32_t term) const;
  /// The same, for a term of another dictionary, looked up by text
  /// (a text this dictionary lacks has df 0).
  double Idf(const std::string& text) const;

 private:
  std::shared_ptr<const TermDictionary> terms_;
  std::vector<uint32_t> df_;
  uint64_t documents_ = 0;
};

/// The term-pair memo of one scoring worker: similarity of (query term,
/// candidate dictionary term), filled lazily and kept across every
/// candidate the worker scores for one query. Name and context matchers
/// share it (they memoize the same pure function of the two terms).
///
/// Rows are the query's vocabulary; columns are the dictionary ids the
/// candidates touched, so memory and reset cost grow with those terms,
/// not with the dictionary. The memo starts over whenever the query
/// features or the candidate dictionary's lineage change -- both keyed by
/// identities that are never recycled -- so one code path serves the
/// engine, tests and benches alike.
class MatchScratch {
 public:
  /// Points the memo at the (query, candidate) pair of `context`. Each
  /// matcher kernel binds before its first lookup; binding the pair
  /// already bound is a no-op.
  void Bind(const MatchContext& context);

  /// Similarity of query term `q` and candidate term `c` (indices into
  /// the bound features' vocabularies), computed by `matcher` on first
  /// use. Identical texts score exactly 1.0 (the Dice of a profile with
  /// itself).
  double Similarity(const NameMatcher& matcher, uint32_t q, uint32_t c) {
    ++lookups_;
    double& cell = cells_[columns_[c] * rows_ + q];
    if (cell != cell) cell = Fill(matcher, q, c);  // NaN: not yet filled
    return cell;
  }

  /// The bound query's / candidate's text of a vocabulary index.
  const std::string& QueryText(uint32_t q) const {
    return query_terms_->term(query_->terms[q]).text;
  }
  const std::string& CandidateText(uint32_t c) const {
    return candidate_terms_->term(candidate_->terms[c]).text;
  }

  /// Work counters since construction: memo reads and the cells they had
  /// to compute.
  uint64_t lookups() const { return lookups_; }
  uint64_t fills() const { return fills_; }

 private:
  double Fill(const NameMatcher& matcher, uint32_t q, uint32_t c);
  /// The memo column of dictionary id `term`, appending one when new.
  uint32_t Column(uint32_t term);

  const SchemaFeatures* query_ = nullptr;
  const TermDictionary* query_terms_ = nullptr;
  const SchemaFeatures* candidate_ = nullptr;
  const TermDictionary* candidate_terms_ = nullptr;
  uint64_t query_serial_ = 0;
  uint64_t candidate_lineage_ = 0;
  uint64_t candidate_serial_ = 0;
  size_t rows_ = 0;
  /// Column-major: column k holds rows_ cells, NaN until filled.
  std::vector<double> cells_;
  /// Open-addressed map dictionary id -> column (kNotFound = empty).
  std::vector<std::pair<uint32_t, uint32_t>> slots_;
  size_t num_columns_ = 0;
  /// The bound candidate's vocabulary index -> column.
  std::vector<uint32_t> columns_;
  uint64_t lookups_ = 0;
  uint64_t fills_ = 0;
};

/// Builds the full feature set for one schema, except the signature
/// (which wants the corpus-wide df table; see ComputeSignature), with a
/// private dictionary. Never fails: an empty schema yields empty features.
std::shared_ptr<SchemaFeatures> BuildSchemaFeatures(
    const Schema& schema, const FeatureBuildOptions& options);

/// The same, resolving terms in `*terms` and extending it copy-on-write:
/// the first term it lacks replaces `*terms` with an extended copy (same
/// lineage), so a dictionary someone else holds is never mutated.
std::shared_ptr<SchemaFeatures> BuildSchemaFeatures(
    const Schema& schema, const FeatureBuildOptions& options,
    std::shared_ptr<const TermDictionary>* terms);

/// Fills features->signature from its terms, resolved in `terms`,
/// IDF-weighted when `df` is non-null, and seals the CRC.
void ComputeSignature(SchemaFeatures* features, const TermDictionary& terms,
                      const DfTable* df);

/// ComputeSignature for a standalone build (its private dictionary).
void ComputeSignature(SchemaFeatures* features, const DfTable* df);

/// Match() of a matcher that scores only through MatchPrepared: builds
/// standalone features for both schemas under `options` (which must be
/// the matcher's own) and runs the kernel with a local memo.
SimilarityMatrix MatchStandalone(const Matcher& matcher, const Schema& query,
                                 const Schema& candidate,
                                 const FeatureBuildOptions& options);

/// Counters from one catalog build, for `schemr stats` and metrics.
struct CatalogBuildStats {
  size_t schemas = 0;
  size_t signatures_loaded = 0;   ///< adopted from a persisted file
  size_t signatures_built = 0;    ///< computed (fresh, or rebuilt on CRC fail)
  size_t corrupt_records = 0;     ///< persisted records that failed their CRC
  double seconds = 0.0;           ///< wall time of the whole build (Add + Build)
};

class MatchFeatureCatalog;

/// Signatures read back from a signature file. Only CRC-valid records
/// survive loading; `corpus_hash` gates adoption (a catalog built over a
/// different corpus ignores the whole file and rebuilds).
struct StoredSignatures {
  uint64_t corpus_hash = 0;
  std::unordered_map<SchemaId, SchemaSignature> signatures;
  size_t corrupt_records = 0;
};

/// Two-pass catalog builder: Add() every schema (features + df), then
/// Build() computes signatures under the final df table -- so a full
/// build's signatures are independent of insertion order. Features are
/// built under the default matcher options, which the default ensemble's
/// matchers score. Single use: Build() hands everything to the catalog
/// and leaves the builder empty.
class CatalogBuilder {
 public:
  CatalogBuilder();

  /// Pass 1: features without signature, df accumulation.
  void Add(const Schema& schema);

  /// Pass 2: signatures (adopting entries from `stored` when its
  /// corpus_hash matches this corpus), then freezes the catalog.
  std::shared_ptr<const MatchFeatureCatalog> Build(
      const StoredSignatures* stored = nullptr,
      CatalogBuildStats* stats = nullptr);

 private:
  NameMatcher profiler_;
  /// Extended in place: nothing else sees it until Build() freezes it.
  std::shared_ptr<TermDictionary> terms_;
  std::unordered_map<SchemaId, std::shared_ptr<SchemaFeatures>> features_;
  DfTable df_;
  double add_seconds_ = 0.0;
};

/// Immutable per-snapshot feature store: schema id → features, plus the
/// df table (which carries the term dictionary every schema's ids resolve
/// in) and build options. Shared by every search pinned to the snapshot;
/// versioned implicitly by riding inside CorpusSnapshot.
class MatchFeatureCatalog {
 public:
  MatchFeatureCatalog(
      FeatureBuildOptions options,
      std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
          features,
      std::shared_ptr<const DfTable> df);

  /// The features of `id`, or null when the schema is unknown (the engine
  /// then builds standalone features for it).
  const SchemaFeatures* Find(SchemaId id) const;

  const FeatureBuildOptions& options() const { return options_; }
  const DfTable& df() const { return *df_; }
  /// The corpus-wide dictionary the features' term ids resolve in.
  const TermDictionary& terms() const { return *df_->terms(); }
  size_t size() const { return features_.size(); }

  /// Order-independent hash of every schema's content hash; keys the
  /// persisted-signature file to this exact corpus.
  uint64_t CorpusHash() const;

  /// The underlying map (ServingCorpus seeds its incremental working set
  /// from a full build; tests iterate it).
  const std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>&
  features() const {
    return features_;
  }

 private:
  FeatureBuildOptions options_;
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
      features_;
  std::shared_ptr<const DfTable> df_;
};

/// Persists every signature in `catalog` to `path`:
///   "SSIG" magic, version, corpus hash, record count, then per record
///   (schema id, signature payload, record CRC). Atomic-enough for our
///   use (write then rename is overkill for an advisory cache — a torn
///   file just fails its CRCs and gets rebuilt).
Status SaveSignatures(const std::string& path,
                      const MatchFeatureCatalog& catalog);

/// Reads a signature file. Records whose CRC fails are counted in
/// `corrupt_records` and dropped — a byte flip is detected, never served.
/// IOError when the file cannot be read; ParseError on a bad header.
Result<StoredSignatures> LoadSignatures(const std::string& path);

}  // namespace schemr

#endif  // SCHEMR_MATCH_FEATURES_H_
