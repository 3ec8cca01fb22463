// The schema repository: Schemr's replacement for Yggdrasil (Fig. 5).
//
// Stores schemas durably (binary codec over the log-structured KV store)
// or in memory (for benchmarks and short-lived fragments), assigns stable
// SchemaIds, and provides the two access patterns the architecture needs:
// bulk scan (the offline text indexer) and point lookup (the visualization
// service resolving a clicked result's schema id).
//
// Concurrency model (DESIGN.md §9): schema reads are snapshot-isolated.
// Every successful mutation republishes an immutable RepositoryView — a
// point-in-time map of encoded schema records behind a swappable
// shared_ptr (AtomicSharedPtr, util/atomic_shared_ptr.h) — and
// Get/Contains/Size/Ids/ListAll/ForEach serve from the current view
// without taking the writer mutex. Writers
// (and the annotation endpoints, whose read-modify-write cycles need it)
// serialize on the internal mutex; durable writes commit to the store
// before the new view is published, so a published view never shows a
// record the store could lose on crash. View payloads are shared between
// generations (copy-on-write of the id map, not of the encoded bytes),
// so a republish costs O(schemas · log) pointer copies.

#ifndef SCHEMR_REPO_SCHEMA_REPOSITORY_H_
#define SCHEMR_REPO_SCHEMA_REPOSITORY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "repo/annotations.h"
#include "schema/schema.h"
#include "store/kv_store.h"
#include "util/atomic_shared_ptr.h"
#include "util/status.h"

namespace schemr {

/// Lightweight listing row (the search-result table shows name, entities,
/// attributes, description without materializing full schemas).
struct SchemaSummary {
  SchemaId id = kNoSchema;
  std::string name;
  std::string description;
  size_t num_entities = 0;
  size_t num_attributes = 0;
};

/// An immutable point-in-time view of the repository's schema records.
/// Acquired via SchemaRepository::View() (or inside a CorpusSnapshot) and
/// valid for as long as the caller holds the shared_ptr; later mutations
/// publish new views and never touch this one. All methods are const and
/// safe to call from any number of threads.
class RepositoryView {
 public:
  /// Decodes and returns the schema; NotFound if absent in this view.
  Result<Schema> Get(SchemaId id) const;

  bool Contains(SchemaId id) const;
  size_t Size() const { return encoded_.size(); }

  /// All schema ids in this view, ascending.
  std::vector<SchemaId> Ids() const;

  /// Summaries of all schemas in this view, ascending by id.
  Result<std::vector<SchemaSummary>> ListAll() const;

  /// Calls `fn` for every schema in this view, ascending by id; stops on
  /// first error. Unlike iterating Get() against the live repository,
  /// the iteration is point-in-time consistent.
  Status ForEach(const std::function<Status(const Schema&)>& fn) const;

  /// Monotone publication counter of the owning repository.
  uint64_t version() const { return version_; }

  /// 64-bit key of this view's content: every record's id and encoded
  /// bytes, in id order. Equal views have equal keys; views that differ
  /// anywhere, a description included, collide with odds of about 2^-64.
  /// Keys the persisted index segment to the corpus it was built from.
  uint64_t ContentKey() const;

 private:
  friend class SchemaRepository;
  uint64_t version_ = 0;
  /// Encoded records, shared (not copied) across view generations.
  std::map<SchemaId, std::shared_ptr<const std::string>> encoded_;
};

/// Durable or in-memory collection of schemas keyed by SchemaId.
class SchemaRepository {
 public:
  /// Opens a persistent repository rooted at `path`, replaying the store.
  /// The repository opts into salvage mode
  /// (KvStoreOptions::salvage_corrupt_segments): a repository with damaged
  /// older segments opens with every still-readable schema rather than
  /// refusing service, and GetRepairReport() describes what was lost.
  static Result<std::unique_ptr<SchemaRepository>> Open(
      std::string path, KvStoreOptions options = {});

  /// Creates a volatile repository (no files touched).
  static std::unique_ptr<SchemaRepository> OpenInMemory();

  /// Adds a schema, assigning and returning a fresh id (also written into
  /// the stored schema). Validates first.
  Result<SchemaId> Insert(Schema schema);

  /// Replaces the schema with `schema.id()`. NotFound if absent.
  Status Update(const Schema& schema);

  /// Fetches a schema by id.
  Result<Schema> Get(SchemaId id) const;

  /// Deletes a schema by id. NotFound if absent.
  Status Remove(SchemaId id);

  bool Contains(SchemaId id) const;
  size_t Size() const;

  /// The current immutable snapshot of the schema records (never null).
  /// Reads through one view are point-in-time consistent; re-acquire to
  /// observe later commits.
  std::shared_ptr<const RepositoryView> View() const;

  /// Publication counter: how many views have been published.
  uint64_t version() const { return View()->version(); }

  /// All schema ids, ascending.
  std::vector<SchemaId> Ids() const;

  /// Summaries of all schemas, ascending by id.
  Result<std::vector<SchemaSummary>> ListAll() const;

  /// Calls `fn` for every schema, ascending by id; stops on first error.
  Status ForEach(const std::function<Status(const Schema&)>& fn) const;

  /// Compacts the underlying store (no-op in memory mode).
  Status Compact();

  /// Storage-engine statistics (also refreshes the schemr_store_* gauges);
  /// nullopt in memory mode.
  std::optional<KvStoreStats> GetStoreStats() const;

  /// What salvage-mode recovery had to quarantine when the store was
  /// opened (all-zero report on a clean open); nullopt in memory mode.
  std::optional<KvRepairReport> GetRepairReport() const;

  // --- Collaboration annotations (paper Applications/Summary) -------------

  /// Appends a comment to the schema. NotFound if the schema is absent.
  Status AddComment(SchemaId id, const SchemaComment& comment);

  /// All comments on the schema, oldest first. Empty list if none.
  Result<std::vector<SchemaComment>> GetComments(SchemaId id) const;

  /// Records a rating (1-5 stars); a later rating by the same author
  /// replaces the earlier one. InvalidArgument for out-of-range stars.
  Status AddRating(SchemaId id, const SchemaRating& rating);

  /// Count + average of the schema's ratings.
  Result<RatingSummary> GetRatingSummary(SchemaId id) const;

  /// Bumps the schema's usage counter (a search click / reuse event).
  Status RecordUsage(SchemaId id);

  /// Lifetime usage count (0 if never used).
  Result<uint64_t> GetUsageCount(SchemaId id) const;

 private:
  SchemaRepository();

  /// Null store = in-memory mode (the published view is then the only
  /// copy of the schema records).
  std::unique_ptr<KvStore> store_;

  SchemaId next_id_ = 1;
  /// Serializes writers and the annotation read-modify-write cycles.
  /// Schema reads do not take it — they go through view_.
  mutable std::mutex mutex_;
  /// The current immutable schema view, swapped on every mutation.
  AtomicSharedPtr<const RepositoryView> view_;

  static std::string KeyFor(SchemaId id);
  /// Commits to the store (durable first), then publishes a new view
  /// containing the record.
  Status PutLocked(SchemaId id, std::string encoded);
  /// Publishes a copy of the current view with `mutate` applied.
  void PublishLocked(
      const std::function<void(
          std::map<SchemaId, std::shared_ptr<const std::string>>*)>& mutate);

  // Auxiliary (annotation) records share the key space of the store with
  // their own prefixes; the in-memory backend keeps them in aux_.
  Status PutAuxLocked(const std::string& key, const std::string& value);
  /// NotFound when the key does not exist.
  Result<std::string> GetAuxLocked(const std::string& key) const;
  bool ContainsLocked(SchemaId id) const;

  std::map<std::string, std::string> aux_;  // in-memory annotations
};

}  // namespace schemr

#endif  // SCHEMR_REPO_SCHEMA_REPOSITORY_H_
