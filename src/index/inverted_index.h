// In-memory inverted index with on-disk persistence.
//
// "Our inverted index stores a term dictionary of frequency data,
// proximity data, and normalization factors, providing a fast and scalable
// filter for relevant candidate schemas." (paper Sec. 2)
//
// The term dictionary maps (field, term) to a posting list; each posting
// carries the in-document term frequency and token positions (proximity
// data). Per-document, per-field token counts provide the length
// normalization factors. Documents are addressed internally by dense
// ordinals; external ids (SchemaIds) are kept alongside. Deletion marks a
// tombstone bit that searches skip; Vacuum() (called by the offline
// indexer between scheduled rebuilds) rewrites the index without them.

#ifndef SCHEMR_INDEX_INVERTED_INDEX_H_
#define SCHEMR_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/document.h"
#include "text/analyzer.h"
#include "util/status.h"

namespace schemr {

/// One document's occurrence of a term in one field.
struct Posting {
  uint32_t doc = 0;  ///< internal ordinal
  uint32_t tf = 0;   ///< term frequency in the field
  /// Token positions, ascending. A u32string serves as a small vector of
  /// 32-bit values: its small-string buffer holds up to three positions,
  /// and most postings have one, so the index copy every ingest makes
  /// allocates for few postings (EXPERIMENTS.md E23).
  std::u32string positions;
};

/// Per-document stored metadata.
struct DocInfo {
  uint64_t external_id = 0;
  std::string title;
  std::array<uint32_t, kNumFields> field_lengths = {0, 0, 0};
  bool deleted = false;
};

/// The index.
///
/// Thread-safety contract (exact, not aspirational): an InvertedIndex has
/// no internal synchronization. Concurrent reads are safe only while no
/// mutator (AddDocument / RemoveDocument / Vacuum) is running; a mutation
/// concurrent with any read is a data race. For live ingest alongside
/// serving, do not mutate a shared instance — use VersionedIndex
/// (index/versioned_index.h), which applies mutations copy-on-write and
/// atomically publishes immutable snapshots, so readers pre-swap see the
/// old index and readers post-swap see the new one, never a mix.
///
/// Readers declare themselves with a ReadScope; in debug builds the
/// mutators assert that no read epoch is active, catching the
/// unsynchronized search-while-ingest misuse at its source.
class InvertedIndex {
 public:
  explicit InvertedIndex(AnalyzerOptions analyzer_options = {})
      : analyzer_(analyzer_options) {}

  // Copies and moves transfer the corpus but never an active read epoch:
  // the new instance starts with zero readers (std::atomic is neither
  // copyable nor movable, so these are spelled out).
  InvertedIndex(const InvertedIndex& other)
      : analyzer_(other.analyzer_),
        postings_(other.postings_),
        docs_(other.docs_),
        external_to_ordinal_(other.external_to_ordinal_),
        live_docs_(other.live_docs_) {}
  InvertedIndex(InvertedIndex&& other) noexcept
      : analyzer_(std::move(other.analyzer_)),
        postings_(std::move(other.postings_)),
        docs_(std::move(other.docs_)),
        external_to_ordinal_(std::move(other.external_to_ordinal_)),
        live_docs_(other.live_docs_) {}
  InvertedIndex& operator=(const InvertedIndex& other) {
    if (this != &other) {
      assert(active_readers_.load(std::memory_order_acquire) == 0 &&
             "InvertedIndex overwritten during an active read epoch");
      analyzer_ = other.analyzer_;
      postings_ = other.postings_;
      docs_ = other.docs_;
      external_to_ordinal_ = other.external_to_ordinal_;
      live_docs_ = other.live_docs_;
    }
    return *this;
  }
  InvertedIndex& operator=(InvertedIndex&& other) noexcept {
    if (this != &other) {
      assert(active_readers_.load(std::memory_order_acquire) == 0 &&
             "InvertedIndex overwritten during an active read epoch");
      analyzer_ = std::move(other.analyzer_);
      postings_ = std::move(other.postings_);
      docs_ = std::move(other.docs_);
      external_to_ordinal_ = std::move(other.external_to_ordinal_);
      live_docs_ = other.live_docs_;
    }
    return *this;
  }

  /// RAII read-epoch marker. Readers (the searcher, tests) hold one for
  /// the duration of their traversal; mutators assert (debug builds) that
  /// none is active. This is a misuse detector, not a lock — it makes the
  /// documented contract observable instead of silently racy.
  class ReadScope {
   public:
    explicit ReadScope(const InvertedIndex* index) : index_(index) {
      index_->active_readers_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ReadScope() {
      index_->active_readers_.fetch_sub(1, std::memory_order_acq_rel);
    }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;

   private:
    const InvertedIndex* index_;
  };

  /// Read epochs currently open (diagnostics and tests).
  int32_t active_readers() const {
    return active_readers_.load(std::memory_order_acquire);
  }

  /// Analyzes and adds one document. Duplicate external ids are rejected
  /// with AlreadyExists (remove first to replace).
  Status AddDocument(const Document& doc);

  /// Tombstones the document with this external id. NotFound if absent.
  Status RemoveDocument(uint64_t external_id);

  /// True if present and not deleted.
  bool ContainsDocument(uint64_t external_id) const;

  /// Live document count.
  size_t NumDocs() const { return live_docs_; }
  /// Total documents including tombstones (internal ordinal space).
  size_t TotalDocSlots() const { return docs_.size(); }
  /// Distinct (field, term) entries.
  size_t NumTerms() const { return postings_.size(); }

  /// Posting list for a term in a field, or nullptr if unseen. The term
  /// must already be analyzer-normalized (see analyzer()).
  const std::vector<Posting>* GetPostings(Field field,
                                          std::string_view term) const;

  /// Document frequency: number of documents (including tombstoned; callers
  /// compare against NumDocs) containing the term in the field.
  size_t DocFreq(Field field, std::string_view term) const;

  const DocInfo& doc_info(uint32_t ordinal) const { return docs_[ordinal]; }

  const Analyzer& analyzer() const { return analyzer_; }

  /// Rewrites the index dropping tombstoned documents (reassigns
  /// ordinals).
  void Vacuum();

  /// Serializes the whole index to `path` ("segment file"): the key of
  /// the corpus content it was built from (0 = none), the analyzer
  /// options, varint delta-encoded postings and a CRC32 footer.
  Status Save(const std::string& path, uint64_t corpus_key = 0) const;

  /// Loads an index previously written by Save. The analyzer options are
  /// restored from the file so query analysis matches index analysis;
  /// `corpus_key`, when non-null, receives the key it was saved with.
  static Result<InvertedIndex> Load(const std::string& path,
                                    uint64_t* corpus_key = nullptr);

 private:
  friend class IndexCodec;

  void IndexText(uint32_t ordinal, Field field, std::string_view text,
                 uint32_t* position_cursor);

  static std::string TermKey(Field field, std::string_view term);

  Analyzer analyzer_;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::vector<DocInfo> docs_;
  std::unordered_map<uint64_t, uint32_t> external_to_ordinal_;
  size_t live_docs_ = 0;
  /// Open ReadScopes; mutators assert this is zero in debug builds.
  mutable std::atomic<int32_t> active_readers_{0};
};

}  // namespace schemr

#endif  // SCHEMR_INDEX_INVERTED_INDEX_H_
