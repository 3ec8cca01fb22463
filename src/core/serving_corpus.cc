#include "core/serving_corpus.h"

#include "index/indexer.h"
#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace schemr {

namespace {

struct SignatureMetrics {
  Histogram* build_seconds;
  Gauge* dictionary_terms;

  static const SignatureMetrics& Get() {
    static const SignatureMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new SignatureMetrics{
          r.GetHistogram("schemr_signature_build_seconds",
                         "Wall time spent building match-feature catalogs "
                         "and schema signatures (full rebuilds and "
                         "incremental per-schema builds)."),
          r.GetGauge("schemr_match_term_dictionary_terms",
                     "Distinct terms in the published snapshot's "
                     "corpus-wide match-feature dictionary."),
      };
    }();
    return *metrics;
  }
};

struct GraphCacheMetrics {
  Counter* hits;
  Counter* builds;

  static const GraphCacheMetrics& Get() {
    static const GraphCacheMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new GraphCacheMetrics{
          r.GetCounter("schemr_entity_graph_cache_hits_total",
                       "Phase-3 entity graphs served from the snapshot "
                       "cache instead of being rebuilt."),
          r.GetCounter("schemr_entity_graph_cache_builds_total",
                       "Entity graphs built and inserted into a snapshot "
                       "cache (includes the losers of build races)."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

void ReportTermDictionary(const MatchFeatureCatalog& catalog) {
  SignatureMetrics::Get().dictionary_terms->Set(
      static_cast<double>(catalog.terms().size()));
}

std::shared_ptr<const EntityGraph> EntityGraphCache::GetOrBuild(
    SchemaId id, const Schema& schema) {
  const GraphCacheMetrics& metrics = GraphCacheMetrics::Get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it != graphs_.end()) {
      metrics.hits->Increment();
      return it->second;
    }
  }
  // Build outside the lock: graph construction is O(V+E) but a big schema
  // must not serialize every other worker's lookup behind it. A racing
  // builder is possible and harmless -- emplace keeps the first insert.
  auto built = std::make_shared<const EntityGraph>(schema);
  metrics.builds->Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = graphs_.emplace(id, std::move(built));
  return it->second;
}

size_t EntityGraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

ServingCorpus::ServingCorpus(std::unique_ptr<SchemaRepository> repository,
                             AnalyzerOptions analyzer_options,
                             FeatureBuildOptions feature_options)
    : repository_(std::move(repository)),
      analyzer_options_(analyzer_options),
      index_(analyzer_options),
      feature_options_(feature_options),
      snapshot_(std::make_shared<const CorpusSnapshot>()) {}

Result<std::unique_ptr<ServingCorpus>> ServingCorpus::Create(
    std::unique_ptr<SchemaRepository> repository,
    AnalyzerOptions analyzer_options, FeatureBuildOptions feature_options) {
  std::unique_ptr<ServingCorpus> corpus(new ServingCorpus(
      std::move(repository), analyzer_options, feature_options));
  SCHEMR_RETURN_IF_ERROR(corpus->Reindex());
  return corpus;
}

std::shared_ptr<const CorpusSnapshot> ServingCorpus::Snapshot() const {
  return snapshot_.load();
}

void ServingCorpus::PublishLocked() {
  auto next = std::make_shared<CorpusSnapshot>();
  next->version = Snapshot()->version + 1;
  next->index = index_.Snapshot();
  next->schemas = repository_->View();
  // Freeze the working feature set into the snapshot: the map copy is
  // shared_ptr-shallow, so publication stays cheap and the catalog stays
  // immutable no matter what later writers do to features_.
  next->match_features = std::make_shared<const MatchFeatureCatalog>(
      feature_options_, features_, std::make_shared<const DfTable>(df_));
  ReportTermDictionary(*next->match_features);
  FaultInjector::Global().Perturb("corpus/commit/publish");
  snapshot_.store(std::move(next));
}

Result<SchemaId> ServingCorpus::Ingest(Schema schema) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
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
  // full Reindex recomputes every signature under the final df, so
  // signatures converge on rebuild; they are advisory either way.) New
  // terms extend the dictionary copy-on-write: published snapshots keep
  // the dictionary they were published with.
  Timer timer;
  std::shared_ptr<const TermDictionary> terms = df_.terms();
  auto features = BuildSchemaFeatures(schema, feature_options_, &terms);
  df_.ExtendTerms(std::move(terms));
  df_.AddDocument(*features);
  ComputeSignature(features.get(), *df_.terms(), &df_);
  features_[schema.id()] = std::move(features);
  SignatureMetrics::Get().build_seconds->Observe(timer.ElapsedSeconds());
}

Status ServingCorpus::Remove(SchemaId id) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
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

Status ServingCorpus::Reindex() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return RebuildLocked(nullptr);
}

Status ServingCorpus::ReindexWithStoredSignatures(
    const std::string& signature_path, CatalogBuildStats* stats) {
  StoredSignatures stored;
  const StoredSignatures* stored_ptr = nullptr;
  {
    // Missing or unreadable file is a clean cold start, not an error; a
    // bad header means the file is garbage and a full rebuild (plus the
    // save below) replaces it.
    Result<StoredSignatures> loaded = LoadSignatures(signature_path);
    if (loaded.ok()) {
      stored = std::move(loaded).value();
      stored_ptr = &stored;
    }
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  SCHEMR_RETURN_IF_ERROR(RebuildLocked(stored_ptr));
  if (stats != nullptr) *stats = last_build_stats_;
  // Persist the (possibly rebuilt) signatures for the next open. Failure
  // to write is non-fatal: the cache is advisory.
  Status saved = SaveSignatures(signature_path, *Snapshot()->match_features);
  (void)saved;
  return Status::OK();
}

Status ServingCorpus::RebuildLocked(const StoredSignatures* stored) {
  // Build against the repository view that will ship in the snapshot, so
  // the rebuilt index, the catalog and the published schemas agree
  // exactly. The index gets a pass of its own before the catalog's, which
  // costs a second decode of each schema: feeding both builds from one
  // pass interleaves the index's allocations with the catalog's, and
  // every later copy-on-write clone of that scattered index (one per
  // ingest) takes markedly more CPU than the decode saves.
  std::shared_ptr<const RepositoryView> schemas = repository_->View();
  SCHEMR_RETURN_IF_ERROR(index_.Apply([&schemas, this](InvertedIndex* index) {
    *index = InvertedIndex(analyzer_options_);
    return schemas->ForEach([index](const Schema& schema) {
      return index->AddDocument(FlattenSchema(schema));
    });
  }));
  CatalogBuilder builder(feature_options_);
  SCHEMR_RETURN_IF_ERROR(schemas->ForEach([&builder](const Schema& schema) {
    builder.Add(schema);
    return Status::OK();
  }));
  auto catalog = builder.Build(stored, &last_build_stats_);
  features_ = catalog->features();
  df_ = catalog->df();
  SignatureMetrics::Get().build_seconds->Observe(last_build_stats_.seconds);
  PublishLocked();
  return Status::OK();
}

CatalogBuildStats ServingCorpus::last_build_stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return last_build_stats_;
}

}  // namespace schemr
