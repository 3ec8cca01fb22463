// The serving corpus: pairs the schema repository with a versioned text
// index and publishes both as ONE immutable snapshot, so a search that
// runs concurrently with ingest sees either the pre-commit corpus or the
// post-commit corpus -- never the index of one and the schemas of the
// other.
//
// Concurrency model (DESIGN.md §9):
//   - Writers (Ingest/Update/Remove/Reindex) serialize on an internal
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
#include <unordered_map>
#include <utility>

#include "index/versioned_index.h"
#include "match/features.h"
#include "repo/schema_repository.h"
#include "schema/entity_graph.h"
#include "text/analyzer.h"
#include "util/atomic_shared_ptr.h"
#include "util/status.h"

namespace schemr {

/// Lazily built per-schema EntityGraph store that rides inside one
/// CorpusSnapshot. Schemas are immutable within a snapshot, so a graph
/// built once is valid for the snapshot's whole lifetime and can be
/// shared by every search (and every scoring worker) pinned to it;
/// without this, phase 3 rebuilt the graph per candidate per request.
/// Thread-safe; the returned graphs are immutable.
class EntityGraphCache {
 public:
  /// Returns the graph for `schema` (keyed by id), building it outside
  /// the lock on first request. Two threads racing on a cold id may both
  /// build; the loser's graph is discarded and the winner's is returned
  /// to both, so callers always share one instance per schema.
  std::shared_ptr<const EntityGraph> GetOrBuild(SchemaId id,
                                                const Schema& schema);

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<SchemaId, std::shared_ptr<const EntityGraph>> graphs_;
};

/// An immutable, internally consistent point-in-time view of the whole
/// corpus. Everything reachable from it is const and safe to share
/// across threads without further synchronization.
struct CorpusSnapshot {
  /// Monotone publication counter of the owning ServingCorpus.
  uint64_t version = 0;
  /// The text index at this version.
  std::shared_ptr<const InvertedIndex> index;
  /// The schema records at this version.
  std::shared_ptr<const RepositoryView> schemas;
  /// Per-schema entity graphs, filled lazily by phase 3 (the pointer is
  /// const-shared so the cache stays usable through a const snapshot).
  std::shared_ptr<EntityGraphCache> entity_graphs =
      std::make_shared<EntityGraphCache>();
  /// Columnar matcher features + screening signatures for every schema in
  /// `schemas`, built at index time (DESIGN.md §16). Never null after the
  /// first publication; versioned by riding inside the snapshot, so the
  /// result cache's corpus_version key covers it too.
  std::shared_ptr<const MatchFeatureCatalog> match_features;
};

/// Sets the schemr_match_term_dictionary_terms gauge to the size of the
/// dictionary `catalog` publishes. ServingCorpus calls it on every
/// publication; a caller pinning its own snapshot calls it once.
void ReportTermDictionary(const MatchFeatureCatalog& catalog);

/// Owns a SchemaRepository plus the index built over it and keeps the two
/// in lock-step behind atomically swapped snapshots.
class ServingCorpus {
 public:
  /// Wraps `repository` (which may already hold schemas) and indexes its
  /// current contents. Fails if an existing schema cannot be re-indexed.
  static Result<std::unique_ptr<ServingCorpus>> Create(
      std::unique_ptr<SchemaRepository> repository,
      AnalyzerOptions analyzer_options = {},
      FeatureBuildOptions feature_options = {});

  /// Inserts the schema into the repository (durably, assigning an id),
  /// indexes it, and publishes the combined snapshot. Returns the id.
  Result<SchemaId> Ingest(Schema schema);

  /// Replaces the schema with `schema.id()` and re-indexes it.
  Status Update(Schema schema);

  /// Removes the schema from the repository and the index.
  Status Remove(SchemaId id);

  /// Rebuilds the index from the repository's current contents (e.g.
  /// after changing analyzer options upstream) and republishes.
  Status Reindex();

  /// Reindex() with signature persistence: tries to adopt CRC-valid
  /// signatures for the current corpus from `signature_path` (missing or
  /// unreadable file → clean full build; corrupt or stale records are
  /// dropped, counted and recomputed — never served), then writes the
  /// rebuilt signature set back to the same path. `stats`, when non-null,
  /// receives the build counters.
  Status ReindexWithStoredSignatures(const std::string& signature_path,
                                     CatalogBuildStats* stats = nullptr);

  /// Counters of the most recent full catalog build (Create/Reindex).
  CatalogBuildStats last_build_stats() const;

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
  ServingCorpus(std::unique_ptr<SchemaRepository> repository,
                AnalyzerOptions analyzer_options,
                FeatureBuildOptions feature_options);

  /// Composes the current repository view + index snapshot into a new
  /// CorpusSnapshot and swaps it in. Caller holds writer_mutex_.
  void PublishLocked();

  /// Full rebuild of the index and the catalog from the repository's
  /// current view, then publication (caller holds writer_mutex_);
  /// replaces features_/df_ and records stats. `stored` may be null (no
  /// persisted signatures to adopt).
  Status RebuildLocked(const StoredSignatures* stored);

  /// Builds, signs and adds `schema`'s features to the working set,
  /// extending the dictionary copy-on-write (caller holds writer_mutex_).
  void AddFeaturesLocked(const Schema& schema);

  std::unique_ptr<SchemaRepository> repository_;
  AnalyzerOptions analyzer_options_;
  VersionedIndex index_;
  FeatureBuildOptions feature_options_;
  /// Serializes Ingest/Update/Remove/Reindex so the repository view and
  /// index snapshot composed by PublishLocked always belong together.
  mutable std::mutex writer_mutex_;
  /// Incremental working set behind writer_mutex_; PublishLocked freezes
  /// a copy into each snapshot's MatchFeatureCatalog. df_ carries the
  /// current term dictionary, which is never mutated once published.
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
      features_;
  DfTable df_;
  CatalogBuildStats last_build_stats_;
  AtomicSharedPtr<const CorpusSnapshot> snapshot_;
};

}  // namespace schemr

#endif  // SCHEMR_CORE_SERVING_CORPUS_H_
