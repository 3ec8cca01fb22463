#include "repo/schema_repository.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "schema/schema_codec.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace schemr {

namespace {
constexpr char kSchemaKeyPrefix[] = "s/";
constexpr char kNextIdKey[] = "m/next_id";

std::string AuxKey(char prefix, SchemaId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c/%016" PRIx64, prefix, id);
  return buf;
}
}  // namespace

// --- RepositoryView ----------------------------------------------------------

Result<Schema> RepositoryView::Get(SchemaId id) const {
  auto it = encoded_.find(id);
  if (it == encoded_.end()) {
    return Status::NotFound("schema " + std::to_string(id));
  }
  return DecodeSchema(*it->second);
}

bool RepositoryView::Contains(SchemaId id) const {
  return encoded_.find(id) != encoded_.end();
}

std::vector<SchemaId> RepositoryView::Ids() const {
  std::vector<SchemaId> ids;
  ids.reserve(encoded_.size());
  for (const auto& [id, encoded] : encoded_) ids.push_back(id);
  return ids;
}

Result<std::vector<SchemaSummary>> RepositoryView::ListAll() const {
  std::vector<SchemaSummary> out;
  out.reserve(encoded_.size());
  Status st = ForEach([&out](const Schema& schema) {
    SchemaSummary s;
    s.id = schema.id();
    s.name = schema.name();
    s.description = schema.description();
    s.num_entities = schema.NumEntities();
    s.num_attributes = schema.NumAttributes();
    out.push_back(std::move(s));
    return Status::OK();
  });
  SCHEMR_RETURN_IF_ERROR(st);
  return out;
}

Status RepositoryView::ForEach(
    const std::function<Status(const Schema&)>& fn) const {
  for (const auto& [id, encoded] : encoded_) {
    SCHEMR_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(*encoded));
    SCHEMR_RETURN_IF_ERROR(fn(schema));
  }
  return Status::OK();
}

uint64_t RepositoryView::ContentKey() const {
  // Each step (xor, rotate, multiply by an odd constant) is a bijection
  // of the key, so changing any one input word changes it; each record's
  // id and length precede its bytes.
  uint64_t key = 0x5343484d52564945ull;
  auto fold = [&key](uint64_t word) {
    key = std::rotl(key ^ word, 29) * 0x9e3779b97f4a7c15ull;
  };
  for (const auto& [id, encoded] : encoded_) {
    fold(id);
    fold(encoded->size());
    for (size_t at = 0; at < encoded->size(); at += 8) {
      uint64_t word = 0;
      std::memcpy(&word, encoded->data() + at,
                  std::min<size_t>(8, encoded->size() - at));
      fold(word);
    }
  }
  return key;
}

// --- SchemaRepository --------------------------------------------------------

SchemaRepository::SchemaRepository()
    : view_(std::make_shared<const RepositoryView>()) {}

std::string SchemaRepository::KeyFor(SchemaId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%016" PRIx64, kSchemaKeyPrefix, id);
  return buf;
}

Result<std::unique_ptr<SchemaRepository>> SchemaRepository::Open(
    std::string path, KvStoreOptions options) {
  // The repository prefers degraded service over refusing to open: a
  // damaged segment costs the schemas stored in it, not the whole corpus.
  options.salvage_corrupt_segments = true;
  SCHEMR_ASSIGN_OR_RETURN(auto store, KvStore::Open(std::move(path), options));
  if (store->repair_report().AnyDamage()) {
    SCHEMR_LOG(kWarning) << "schema repository '" << store->path()
                         << "' opened degraded; "
                         << store->repair_report().ToString();
  }
  std::unique_ptr<SchemaRepository> repo(new SchemaRepository());
  repo->store_ = std::move(store);
  // Restore the id counter.
  auto next = repo->store_->Get(kNextIdKey);
  if (next.ok()) {
    uint64_t value = 0;
    for (char c : *next) {
      if (c < '0' || c > '9') {
        return Status::Corruption("bad next_id record");
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    repo->next_id_ = value;
  } else if (!next.status().IsNotFound()) {
    return next.status();
  }
  // Materialize the first published view from the replayed store, so
  // every read after Open is already snapshot-isolated.
  std::map<SchemaId, std::shared_ptr<const std::string>> initial;
  for (const auto& key : repo->store_->Keys()) {
    if (key.rfind(kSchemaKeyPrefix, 0) != 0) continue;
    SchemaId id = std::strtoull(key.c_str() + 2, nullptr, 16);
    SCHEMR_ASSIGN_OR_RETURN(std::string encoded, repo->store_->Get(key));
    initial[id] = std::make_shared<const std::string>(std::move(encoded));
  }
  std::lock_guard<std::mutex> lock(repo->mutex_);
  repo->PublishLocked([&initial](auto* records) { *records = std::move(initial); });
  return repo;
}

std::unique_ptr<SchemaRepository> SchemaRepository::OpenInMemory() {
  return std::unique_ptr<SchemaRepository>(new SchemaRepository());
}

std::shared_ptr<const RepositoryView> SchemaRepository::View() const {
  return view_.load();
}

void SchemaRepository::PublishLocked(
    const std::function<void(
        std::map<SchemaId, std::shared_ptr<const std::string>>*)>& mutate) {
  // Copy-on-write: the map is copied (shared payloads), the delta applied
  // to the copy, and the new view swapped in. Readers holding the old
  // view are untouched.
  auto next = std::make_shared<RepositoryView>();
  std::shared_ptr<const RepositoryView> current = view_.load();
  next->encoded_ = current->encoded_;
  next->version_ = current->version_ + 1;
  mutate(&next->encoded_);
  FaultInjector::Global().Perturb("repo/view/publish");
  view_.store(std::move(next));
}

Status SchemaRepository::PutLocked(SchemaId id, std::string encoded) {
  if (store_ != nullptr) {
    // Durable commit first: a view is published only once the store holds
    // the record, so a crash between the two replays to the published
    // state or earlier, never ahead of it.
    SCHEMR_RETURN_IF_ERROR(store_->Put(KeyFor(id), encoded));
    SCHEMR_RETURN_IF_ERROR(store_->Put(kNextIdKey, std::to_string(next_id_)));
  }
  auto record = std::make_shared<const std::string>(std::move(encoded));
  PublishLocked([id, &record](auto* records) { (*records)[id] = record; });
  return Status::OK();
}

Result<SchemaId> SchemaRepository::Insert(Schema schema) {
  SCHEMR_RETURN_IF_ERROR(schema.Validate());
  std::lock_guard<std::mutex> lock(mutex_);
  SchemaId id = next_id_++;
  schema.set_id(id);
  SCHEMR_RETURN_IF_ERROR(PutLocked(id, EncodeSchema(schema)));
  return id;
}

Status SchemaRepository::Update(const Schema& schema) {
  if (schema.id() == kNoSchema) {
    return Status::InvalidArgument("schema has no id; use Insert");
  }
  SCHEMR_RETURN_IF_ERROR(schema.Validate());
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ContainsLocked(schema.id())) {
    return Status::NotFound("schema " + std::to_string(schema.id()));
  }
  return PutLocked(schema.id(), EncodeSchema(schema));
}

Result<Schema> SchemaRepository::Get(SchemaId id) const {
  return View()->Get(id);
}

Status SchemaRepository::Remove(SchemaId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ContainsLocked(id)) {
    return Status::NotFound("schema " + std::to_string(id));
  }
  if (store_ != nullptr) {
    SCHEMR_RETURN_IF_ERROR(store_->Delete(KeyFor(id)));
  }
  PublishLocked([id](auto* records) { records->erase(id); });
  return Status::OK();
}

bool SchemaRepository::Contains(SchemaId id) const {
  return View()->Contains(id);
}

size_t SchemaRepository::Size() const { return View()->Size(); }

std::vector<SchemaId> SchemaRepository::Ids() const { return View()->Ids(); }

Result<std::vector<SchemaSummary>> SchemaRepository::ListAll() const {
  return View()->ListAll();
}

Status SchemaRepository::ForEach(
    const std::function<Status(const Schema&)>& fn) const {
  return View()->ForEach(fn);
}

Status SchemaRepository::Compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_ != nullptr) return store_->Compact();
  return Status::OK();
}

std::optional<KvStoreStats> SchemaRepository::GetStoreStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_ == nullptr) return std::nullopt;
  return store_->GetStats();
}

std::optional<KvRepairReport> SchemaRepository::GetRepairReport() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_ == nullptr) return std::nullopt;
  return store_->repair_report();
}

// --- annotations -------------------------------------------------------------

Status SchemaRepository::PutAuxLocked(const std::string& key,
                                      const std::string& value) {
  if (store_ != nullptr) return store_->Put(key, value);
  aux_[key] = value;
  return Status::OK();
}

Result<std::string> SchemaRepository::GetAuxLocked(
    const std::string& key) const {
  if (store_ != nullptr) return store_->Get(key);
  auto it = aux_.find(key);
  if (it == aux_.end()) return Status::NotFound(key);
  return it->second;
}

bool SchemaRepository::ContainsLocked(SchemaId id) const {
  return View()->Contains(id);
}

Status SchemaRepository::AddComment(SchemaId id,
                                    const SchemaComment& comment) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ContainsLocked(id)) {
    return Status::NotFound("schema " + std::to_string(id));
  }
  std::vector<SchemaComment> comments;
  auto existing = GetAuxLocked(AuxKey('c', id));
  if (existing.ok()) {
    SCHEMR_ASSIGN_OR_RETURN(comments, DecodeComments(*existing));
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  comments.push_back(comment);
  return PutAuxLocked(AuxKey('c', id), EncodeComments(comments));
}

Result<std::vector<SchemaComment>> SchemaRepository::GetComments(
    SchemaId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto existing = GetAuxLocked(AuxKey('c', id));
  if (!existing.ok()) {
    if (existing.status().IsNotFound()) {
      return std::vector<SchemaComment>{};
    }
    return existing.status();
  }
  return DecodeComments(*existing);
}

Status SchemaRepository::AddRating(SchemaId id, const SchemaRating& rating) {
  if (rating.stars < 1 || rating.stars > 5) {
    return Status::InvalidArgument("stars must be 1..5");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ContainsLocked(id)) {
    return Status::NotFound("schema " + std::to_string(id));
  }
  std::vector<SchemaRating> ratings;
  auto existing = GetAuxLocked(AuxKey('r', id));
  if (existing.ok()) {
    SCHEMR_ASSIGN_OR_RETURN(ratings, DecodeRatings(*existing));
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  bool replaced = false;
  for (SchemaRating& r : ratings) {
    if (r.author == rating.author) {
      r.stars = rating.stars;
      replaced = true;
      break;
    }
  }
  if (!replaced) ratings.push_back(rating);
  return PutAuxLocked(AuxKey('r', id), EncodeRatings(ratings));
}

Result<RatingSummary> SchemaRepository::GetRatingSummary(SchemaId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  RatingSummary summary;
  auto existing = GetAuxLocked(AuxKey('r', id));
  if (!existing.ok()) {
    if (existing.status().IsNotFound()) return summary;
    return existing.status();
  }
  SCHEMR_ASSIGN_OR_RETURN(std::vector<SchemaRating> ratings,
                          DecodeRatings(*existing));
  summary.num_ratings = ratings.size();
  if (!ratings.empty()) {
    double sum = 0.0;
    for (const SchemaRating& r : ratings) sum += r.stars;
    summary.average = sum / static_cast<double>(ratings.size());
  }
  return summary;
}

Status SchemaRepository::RecordUsage(SchemaId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ContainsLocked(id)) {
    return Status::NotFound("schema " + std::to_string(id));
  }
  uint64_t count = 0;
  auto existing = GetAuxLocked(AuxKey('u', id));
  if (existing.ok()) {
    for (char c : *existing) {
      if (c < '0' || c > '9') return Status::Corruption("bad usage counter");
      count = count * 10 + static_cast<uint64_t>(c - '0');
    }
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  return PutAuxLocked(AuxKey('u', id), std::to_string(count + 1));
}

Result<uint64_t> SchemaRepository::GetUsageCount(SchemaId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto existing = GetAuxLocked(AuxKey('u', id));
  if (!existing.ok()) {
    if (existing.status().IsNotFound()) return uint64_t{0};
    return existing.status();
  }
  uint64_t count = 0;
  for (char c : *existing) {
    if (c < '0' || c > '9') return Status::Corruption("bad usage counter");
    count = count * 10 + static_cast<uint64_t>(c - '0');
  }
  return count;
}

}  // namespace schemr
