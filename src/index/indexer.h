// The offline text indexer (paper Fig. 5): flattens schemas from the
// repository into documents and builds/updates the inverted index. In the
// paper this runs "at scheduled intervals"; here it is invoked explicitly
// (RebuildFromRepository) or incrementally (IndexSchema / RemoveSchema).

#ifndef SCHEMR_INDEX_INDEXER_H_
#define SCHEMR_INDEX_INDEXER_H_

#include "index/document.h"
#include "index/inverted_index.h"
#include "repo/schema_repository.h"
#include "schema/schema.h"

namespace schemr {

/// Flattens one schema into an index document: title = schema name,
/// summary = description + element documentation, body = one text per
/// element carrying the element name (entities contribute their name;
/// attributes contribute "entityName attrName" so local context lands in
/// adjacent positions).
Document FlattenSchema(const Schema& schema);

/// Statistics of one indexing run.
struct IndexerStats {
  size_t schemas_indexed = 0;
  size_t schemas_removed = 0;
  double elapsed_seconds = 0.0;
};

/// Builds and maintains an InvertedIndex from a SchemaRepository.
class Indexer {
 public:
  explicit Indexer(AnalyzerOptions analyzer_options = {})
      : index_(analyzer_options) {}

  /// Drops the current index and re-indexes every schema in `repo`.
  Result<IndexerStats> RebuildFromRepository(const SchemaRepository& repo);

  /// Incremental update for one schema (replaces any previous version).
  Status IndexSchema(const Schema& schema);

  /// Incremental removal.
  Status RemoveSchema(SchemaId id);

  /// Synchronizes with the repository: indexes new/changed ids, removes
  /// vanished ids, and vacuums tombstones. This is the "scheduled
  /// interval" entry point.
  Result<IndexerStats> Refresh(const SchemaRepository& repo);

  const InvertedIndex& index() const { return index_; }
  InvertedIndex& mutable_index() { return index_; }

 private:
  InvertedIndex index_;
};

}  // namespace schemr

#endif  // SCHEMR_INDEX_INDEXER_H_
