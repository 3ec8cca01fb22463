// The serving corpus: pairs the schema repository with a versioned text
// index and publishes both as ONE immutable snapshot, so a search that
// runs concurrently with ingest sees either the pre-commit corpus or the
// post-commit corpus -- never the index of one and the schemas of the
// other.
//
// Concurrency model (DESIGN.md §9):
//   - Writers (Ingest/Update/Remove) serialize on an internal
//     mutex. Each commits durably to the repository first, then mutates
//     the index copy-on-write, then publishes a fresh CorpusSnapshot by
//     a pointer swap (AtomicSharedPtr — a micro-mutex held only for the
//     shared_ptr copy; see util/atomic_shared_ptr.h for why not
//     std::atomic<std::shared_ptr>).
//   - Readers call Snapshot() (one pointer copy) and do all their work
//     against that snapshot. Neither side ever waits for more than that
//     copy; a snapshot stays valid for as long as someone holds it and
//     is retired by refcount.
//   - The pairing invariant: within one snapshot, every document in the
//     index resolves in the schema view and vice versa (assuming callers
//     mutate only through this class).

#ifndef SCHEMR_CORE_SERVING_CORPUS_H_
#define SCHEMR_CORE_SERVING_CORPUS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/versioned_index.h"
#include "match/features.h"
#include "repo/schema_repository.h"
#include "util/atomic_shared_ptr.h"
#include "util/status.h"

namespace schemr {

/// An immutable, internally consistent point-in-time view of the whole
/// corpus. Nothing reachable from it changes once it is published (no
/// lazy cache, no lock), so it is safe to share across threads without
/// synchronization.
struct CorpusSnapshot {
  /// Monotone publication counter of the ServingCorpus that published it.
  uint64_t version = 0;
  /// The text index at this version.
  std::shared_ptr<const InvertedIndex> index;
  /// The schema records at this version.
  std::shared_ptr<const RepositoryView> schemas;
  /// Columnar matcher features + screening signatures for every schema in
  /// `schemas`, built at index time (DESIGN.md §16). Never null after the
  /// first publication; versioned by riding inside the snapshot, so the
  /// result cache's corpus_version key covers it too.
  std::shared_ptr<const MatchFeatureCatalog> match_features;
};

/// What ServingCorpus::Open adopted from its state directory or rebuilt,
/// and what each part cost.
struct OpenReport {
  bool index_adopted = false;          ///< segment.idx served as is
  double index_open_seconds = 0.0;     ///< keying + reading the segment
  double index_rebuild_seconds = 0.0;  ///< 0 when the segment was adopted
  CatalogBuildStats catalog;           ///< signatures loaded/built/corrupt
  /// The first failed write-back (OK when none failed). Open still
  /// succeeds: the files are advisory.
  Status persisted;
};

/// Owns a SchemaRepository plus the index built over it and keeps the two
/// in lock-step behind atomically swapped snapshots.
class ServingCorpus {
 public:
  /// Wraps `repository` (which may already hold schemas) and indexes its
  /// current contents. Fails if an existing schema cannot be re-indexed.
  /// Reads and writes no file.
  static Result<std::unique_ptr<ServingCorpus>> Create(
      std::unique_ptr<SchemaRepository> repository);

  /// Create, adopting what `state_dir` persists: `segment.idx` when it
  /// was written for exactly this repository content
  /// (RepositoryView::ContentKey) and analyzer, and the CRC-valid
  /// records of `signatures.sig` under its corpus hash. Whatever it could
  /// not adopt (a stale, key-less, old, torn or corrupt segment is never
  /// served) it rebuilds and writes back. Later writes touch no file.
  static Result<std::unique_ptr<ServingCorpus>> Open(
      std::unique_ptr<SchemaRepository> repository,
      const std::string& state_dir, OpenReport* report = nullptr);

  /// Inserts the schema into the repository (durably, assigning an id),
  /// indexes it, and publishes the combined snapshot. Returns the id.
  Result<SchemaId> Ingest(Schema schema);

  /// Replaces the schema with `schema.id()` and re-indexes it.
  Status Update(Schema schema);

  /// Removes the schema from the repository and the index.
  Status Remove(SchemaId id);

  /// The current corpus snapshot (never null; one acquire-load). Hold the
  /// returned pointer for the duration of a search so every phase sees
  /// the same corpus.
  std::shared_ptr<const CorpusSnapshot> Snapshot() const;

  /// Publication counter: bumped on every successful mutation.
  uint64_t version() const { return Snapshot()->version; }

  /// The live repository, for annotation traffic (comments, ratings,
  /// usage) which is mutex-guarded internally and deliberately NOT part
  /// of the snapshot: annotations tune ranking, they do not define the
  /// corpus, so reading them live is acceptable and avoids republishing
  /// on every click.
  SchemaRepository* repository() { return repository_.get(); }
  const SchemaRepository* repository() const { return repository_.get(); }

 private:
  explicit ServingCorpus(std::unique_ptr<SchemaRepository> repository);

  /// Composes the current repository view + index snapshot into a new
  /// CorpusSnapshot and swaps it in. Caller holds writer_mutex_.
  void PublishLocked();

  /// Frees the replaced snapshots no reader holds. Every write calls it
  /// before its index clone and after it publishes, so the writer frees
  /// old versions, never a search. Caller holds writer_mutex_.
  void ReclaimLocked();

  /// Full rebuild of the index and the catalog from the repository's
  /// current view, then publication (caller holds writer_mutex_);
  /// replaces features_/df_. Takes over `adopted` instead of indexing the
  /// view, and signatures from `stored`, when non-null. Runs only on a
  /// new corpus (Create, Open), whose published index is the empty
  /// initial one, so the index clone in VersionedIndex::Apply is free.
  Result<OpenReport> RebuildLocked(InvertedIndex* adopted,
                                   const StoredSignatures* stored);

  /// Builds, signs and adds `schema`'s features to the working set,
  /// extending the dictionary copy-on-write (caller holds writer_mutex_).
  void AddFeaturesLocked(const Schema& schema);

  std::unique_ptr<SchemaRepository> repository_;
  VersionedIndex index_;
  /// Serializes Ingest/Update/Remove so the repository view and
  /// index snapshot composed by PublishLocked always belong together.
  mutable std::mutex writer_mutex_;
  /// Incremental working set behind writer_mutex_; PublishLocked freezes
  /// a copy into each snapshot's MatchFeatureCatalog. df_ carries the
  /// current term dictionary, which is never mutated once published.
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
      features_;
  DfTable df_;
  AtomicSharedPtr<const CorpusSnapshot> snapshot_;
  /// Replaced snapshots, behind writer_mutex_. Holding them here means a
  /// reader never drops the last reference; one that a search holds
  /// across a write stays allocated until the next write.
  std::vector<std::shared_ptr<const CorpusSnapshot>> retired_;
};

}  // namespace schemr

#endif  // SCHEMR_CORE_SERVING_CORPUS_H_
