#include "core/serving_corpus.h"

#include "index/indexer.h"
#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace schemr {

namespace {

struct CorpusMetrics {
  Histogram* build_seconds;
  Gauge* dictionary_terms;
  Gauge* index_open_seconds;
  Gauge* index_rebuild_seconds;
  Gauge* catalog_seconds;

  static const CorpusMetrics& Get() {
    static const CorpusMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new CorpusMetrics{
          r.GetHistogram("schemr_signature_build_seconds",
                         "Wall time spent building match-feature catalogs "
                         "and schema signatures (full rebuilds and "
                         "incremental per-schema builds)."),
          r.GetGauge("schemr_match_term_dictionary_terms",
                     "Distinct terms in the published snapshot's "
                     "corpus-wide match-feature dictionary."),
          r.GetGauge("schemr_index_open_seconds",
                     "Last ServingCorpus::Open: keying the corpus and "
                     "reading the persisted index segment."),
          r.GetGauge("schemr_index_rebuild_seconds",
                     "Last ServingCorpus::Open: rebuilding the index (0 "
                     "when it adopted the persisted segment)."),
          r.GetGauge("schemr_signature_catalog_seconds",
                     "Last ServingCorpus::Open: building the match-feature "
                     "catalog (features + signatures)."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

ServingCorpus::ServingCorpus(std::unique_ptr<SchemaRepository> repository)
    : repository_(std::move(repository)),
      snapshot_(std::make_shared<const CorpusSnapshot>()) {}

Result<std::unique_ptr<ServingCorpus>> ServingCorpus::Create(
    std::unique_ptr<SchemaRepository> repository) {
  std::unique_ptr<ServingCorpus> corpus(
      new ServingCorpus(std::move(repository)));
  std::lock_guard<std::mutex> lock(corpus->writer_mutex_);
  SCHEMR_RETURN_IF_ERROR(corpus->RebuildLocked(nullptr, nullptr).status());
  return corpus;
}

Result<std::unique_ptr<ServingCorpus>> ServingCorpus::Open(
    std::unique_ptr<SchemaRepository> repository,
    const std::string& state_dir, OpenReport* report) {
  std::unique_ptr<ServingCorpus> corpus(
      new ServingCorpus(std::move(repository)));
  const std::string segment_path = state_dir + "/segment.idx";
  const std::string signature_path = state_dir + "/signatures.sig";
  // The corpus owns its repository, so this is the view RebuildLocked
  // publishes. A segment saved without a key (0) is never adopted.
  Timer timer;
  const uint64_t key = corpus->repository_->View()->ContentKey();
  uint64_t segment_key = 0;
  Result<InvertedIndex> segment =
      InvertedIndex::Load(segment_path, &segment_key);
  const bool adopt = segment.ok() && segment_key != 0 &&
                     segment_key == key &&
                     segment->analyzer().options() == AnalyzerOptions{};
  const double open_seconds = timer.ElapsedSeconds();
  Result<StoredSignatures> stored = LoadSignatures(signature_path);

  std::lock_guard<std::mutex> lock(corpus->writer_mutex_);
  SCHEMR_ASSIGN_OR_RETURN(
      OpenReport opened,
      corpus->RebuildLocked(adopt ? &*segment : nullptr,
                            stored.ok() ? &*stored : nullptr));
  opened.index_open_seconds = open_seconds;
  const std::shared_ptr<const CorpusSnapshot> snapshot = corpus->Snapshot();
  if (!adopt) opened.persisted = snapshot->index->Save(segment_path, key);
  if (opened.catalog.signatures_built > 0 ||
      opened.catalog.corrupt_records > 0) {
    Status saved = SaveSignatures(signature_path, *snapshot->match_features);
    if (opened.persisted.ok()) opened.persisted = std::move(saved);
  }
  const CorpusMetrics& metrics = CorpusMetrics::Get();
  metrics.index_open_seconds->Set(opened.index_open_seconds);
  metrics.index_rebuild_seconds->Set(opened.index_rebuild_seconds);
  metrics.catalog_seconds->Set(opened.catalog.seconds);
  if (report != nullptr) *report = std::move(opened);
  return corpus;
}

std::shared_ptr<const CorpusSnapshot> ServingCorpus::Snapshot() const {
  return snapshot_.load();
}

void ServingCorpus::PublishLocked() {
  std::shared_ptr<const CorpusSnapshot> previous = Snapshot();
  auto next = std::make_shared<CorpusSnapshot>();
  next->version = previous->version + 1;
  next->index = index_.Snapshot();
  next->schemas = repository_->View();
  // Freeze the working feature set into the snapshot: the map copy is
  // shared_ptr-shallow, so publication stays cheap and the catalog stays
  // immutable no matter what later writers do to features_.
  next->match_features = std::make_shared<const MatchFeatureCatalog>(
      FeatureBuildOptions{}, features_, std::make_shared<const DfTable>(df_));
  CorpusMetrics::Get().dictionary_terms->Set(
      static_cast<double>(next->match_features->terms().size()));
  FaultInjector::Global().Perturb("corpus/commit/publish");
  snapshot_.store(std::move(next));
  retired_.push_back(std::move(previous));
  ReclaimLocked();
}

void ServingCorpus::ReclaimLocked() {
  // A retired snapshot is no longer published, so no reader can take a
  // new reference to it: a use count of 1 (this list's own) is final.
  std::erase_if(retired_, [](const std::shared_ptr<const CorpusSnapshot>& s) {
    return s.use_count() == 1;
  });
}

Result<SchemaId> ServingCorpus::Ingest(Schema schema) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ReclaimLocked();
  // Durable commit first: a snapshot must never reference a schema the
  // repository could not persist.
  SCHEMR_ASSIGN_OR_RETURN(SchemaId id, repository_->Insert(schema));
  schema.set_id(id);
  SCHEMR_RETURN_IF_ERROR(index_.AddDocument(FlattenSchema(schema)));
  AddFeaturesLocked(schema);
  PublishLocked();
  return id;
}

Status ServingCorpus::Update(Schema schema) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ReclaimLocked();
  SCHEMR_RETURN_IF_ERROR(repository_->Update(schema));
  // Replace the document in one index publication so no intermediate
  // "removed but not re-added" index version can pair with the new view.
  SCHEMR_RETURN_IF_ERROR(index_.Apply([&schema](InvertedIndex* index) {
    SCHEMR_RETURN_IF_ERROR(index->RemoveDocument(schema.id()));
    return index->AddDocument(FlattenSchema(schema));
  }));
  auto old = features_.find(schema.id());
  if (old != features_.end()) {
    df_.RemoveDocument(*old->second);
    features_.erase(old);
  }
  AddFeaturesLocked(schema);
  PublishLocked();
  return Status::OK();
}

void ServingCorpus::AddFeaturesLocked(const Schema& schema) {
  // Incremental feature build, signed under the df table as of now. (A
  // corpus built anew by Create or Open signs every schema under the
  // final df, so signatures converge on rebuild; they are advisory
  // either way.) New terms extend the dictionary copy-on-write:
  // published snapshots keep the dictionary they were published with.
  Timer timer;
  std::shared_ptr<const TermDictionary> terms = df_.terms();
  auto features = BuildSchemaFeatures(schema, FeatureBuildOptions{}, &terms);
  df_.ExtendTerms(std::move(terms));
  df_.AddDocument(*features);
  ComputeSignature(features.get(), *df_.terms(), &df_);
  features_[schema.id()] = std::move(features);
  CorpusMetrics::Get().build_seconds->Observe(timer.ElapsedSeconds());
}

Status ServingCorpus::Remove(SchemaId id) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ReclaimLocked();
  SCHEMR_RETURN_IF_ERROR(repository_->Remove(id));
  SCHEMR_RETURN_IF_ERROR(index_.RemoveDocument(id));
  auto it = features_.find(id);
  if (it != features_.end()) {
    df_.RemoveDocument(*it->second);
    features_.erase(it);
  }
  PublishLocked();
  return Status::OK();
}

Result<OpenReport> ServingCorpus::RebuildLocked(
    InvertedIndex* adopted, const StoredSignatures* stored) {
  ReclaimLocked();
  OpenReport report;
  report.index_adopted = adopted != nullptr;
  // Build against the repository view that will ship in the snapshot, so
  // the rebuilt index, the catalog and the published schemas agree
  // exactly. The index gets a pass of its own before the catalog's, which
  // costs a second decode of each schema: feeding both builds from one
  // pass interleaves the index's allocations with the catalog's, and
  // every later copy-on-write clone of that scattered index (one per
  // ingest) takes markedly more CPU than the decode saves.
  std::shared_ptr<const RepositoryView> schemas = repository_->View();
  Timer timer;
  SCHEMR_RETURN_IF_ERROR(
      index_.Apply([adopted, &schemas](InvertedIndex* index) {
        if (adopted != nullptr) {
          *index = std::move(*adopted);
          return Status::OK();
        }
        *index = InvertedIndex();
        return schemas->ForEach([index](const Schema& schema) {
          return index->AddDocument(FlattenSchema(schema));
        });
      }));
  if (!report.index_adopted) {
    report.index_rebuild_seconds = timer.ElapsedSeconds();
  }
  CatalogBuilder builder;
  SCHEMR_RETURN_IF_ERROR(schemas->ForEach([&builder](const Schema& schema) {
    builder.Add(schema);
    return Status::OK();
  }));
  auto catalog = builder.Build(stored, &report.catalog);
  features_ = catalog->features();
  df_ = catalog->df();
  CorpusMetrics::Get().build_seconds->Observe(report.catalog.seconds);
  PublishLocked();
  return report;
}

}  // namespace schemr
