#include "index/indexer.h"

#include <unordered_set>

#include "util/timer.h"

namespace schemr {

Document FlattenSchema(const Schema& schema) {
  Document doc;
  doc.external_id = schema.id();
  doc.title = schema.name();
  doc.summary = schema.description();
  for (const Element& element : schema.elements()) {
    if (!element.documentation.empty()) {
      doc.summary += ' ';
      doc.summary += element.documentation;
    }
  }
  doc.body.reserve(schema.size());
  for (ElementId id = 0; id < schema.size(); ++id) {
    const Element& element = schema.element(id);
    if (element.kind == ElementKind::kEntity) {
      doc.body.push_back(element.name);
    } else {
      // Attributes carry their entity's name so that entity context sits
      // in adjacent positions (proximity data).
      ElementId entity = schema.EntityOf(id);
      if (entity != kNoElement) {
        doc.body.push_back(schema.element(entity).name + " " + element.name);
      } else {
        doc.body.push_back(element.name);
      }
    }
  }
  return doc;
}

Result<IndexerStats> Indexer::RebuildFromRepository(
    const SchemaRepository& repo) {
  Timer timer;
  index_ = InvertedIndex(index_.analyzer().options());
  IndexerStats stats;
  Status st = repo.ForEach([this, &stats](const Schema& schema) {
    SCHEMR_RETURN_IF_ERROR(index_.AddDocument(FlattenSchema(schema)));
    ++stats.schemas_indexed;
    return Status::OK();
  });
  SCHEMR_RETURN_IF_ERROR(st);
  stats.elapsed_seconds = timer.ElapsedSeconds();
  return stats;
}

Status Indexer::IndexSchema(const Schema& schema) {
  if (schema.id() == kNoSchema) {
    return Status::InvalidArgument("schema has no id");
  }
  if (index_.ContainsDocument(schema.id())) {
    SCHEMR_RETURN_IF_ERROR(index_.RemoveDocument(schema.id()));
  }
  return index_.AddDocument(FlattenSchema(schema));
}

Status Indexer::RemoveSchema(SchemaId id) { return index_.RemoveDocument(id); }

Result<IndexerStats> Indexer::Refresh(const SchemaRepository& repo) {
  Timer timer;
  IndexerStats stats;
  std::unordered_set<uint64_t> repo_ids;
  for (SchemaId id : repo.Ids()) repo_ids.insert(id);

  // Remove vanished documents.
  std::vector<uint64_t> to_remove;
  for (uint32_t ordinal = 0; ordinal < index_.TotalDocSlots(); ++ordinal) {
    const DocInfo& doc = index_.doc_info(ordinal);
    if (!doc.deleted && !repo_ids.count(doc.external_id)) {
      to_remove.push_back(doc.external_id);
    }
  }
  for (uint64_t id : to_remove) {
    SCHEMR_RETURN_IF_ERROR(index_.RemoveDocument(id));
    ++stats.schemas_removed;
  }

  // Index schemas the index does not know yet. A content change under
  // the same id is not seen: callers reindex it with IndexSchema.
  for (SchemaId id : repo.Ids()) {
    if (index_.ContainsDocument(id)) continue;
    SCHEMR_ASSIGN_OR_RETURN(Schema schema, repo.Get(id));
    SCHEMR_RETURN_IF_ERROR(index_.AddDocument(FlattenSchema(schema)));
    ++stats.schemas_indexed;
  }

  if (stats.schemas_removed > 0) index_.Vacuum();
  stats.elapsed_seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace schemr
