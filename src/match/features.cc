#include "match/features.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>

#include "schema/entity_graph.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace schemr {

namespace {

/// Grams longer than this spill into the overflow array.
constexpr size_t kMaxPackedGram = 7;

/// Domain separator so packed-gram hashes never collide with term-text
/// hashes by construction of the inputs alone.
constexpr uint64_t kGramSeed = 0x5349474e41545552ull;  // "SIGNATUR"

/// Dictionary lineages and feature serials: one process-wide sequence, so
/// neither identity is ever reused (0 means "none" in MatchScratch).
uint64_t NextIdentity() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t PackGram(const std::string& gram) {
  uint64_t key = static_cast<uint64_t>(gram.size()) << 56;
  for (size_t i = 0; i < gram.size(); ++i) {
    key |= static_cast<uint64_t>(static_cast<unsigned char>(gram[i]))
           << (48 - 8 * i);
  }
  return key;
}

uint64_t HashString(uint64_t hash, const std::string& s) {
  hash = MixHash64(hash ^ s.size());
  return MixHash64(hash ^ HashBytes(s.data(), s.size()));
}

/// Deterministic hash of the matcher-visible content of a schema.
uint64_t ContentHash(const Schema& schema) {
  uint64_t hash = 0x534348454d520000ull;  // "SCHEMR"
  hash = HashString(hash, schema.name());
  for (const Element& element : schema.elements()) {
    hash = HashString(hash, element.name);
    hash = MixHash64(hash ^ static_cast<uint64_t>(element.kind));
    hash = MixHash64(hash ^ static_cast<uint64_t>(element.type));
    hash = MixHash64(hash ^ element.parent);
  }
  for (const ForeignKey& fk : schema.foreign_keys()) {
    hash = MixHash64(hash ^ fk.attribute);
    hash = MixHash64(hash ^ fk.target_entity);
    hash = MixHash64(hash ^ fk.target_attribute);
  }
  return hash;
}

/// Sorts `terms` and drops duplicates: the set union of what was
/// appended to it.
void SortedUnion(std::vector<uint32_t>* terms) {
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
}

void Append(const std::vector<uint32_t>& from, std::vector<uint32_t>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Builds everything but the signature; `intern(text)` returns the
/// dictionary id of a term, adding it when new.
template <typename Intern>
std::shared_ptr<SchemaFeatures> BuildFeatures(
    const Schema& schema, const FeatureBuildOptions& options, Intern intern) {
  auto features = std::make_shared<SchemaFeatures>();
  features->name_options = options.name;
  features->context_options = options.context;
  features->content_hash = ContentHash(schema);
  features->serial = NextIdentity();
  const size_t n = schema.size();

  // Each element name's text work, done once. Name words mirror
  // NameMatcher::NormalizeName (tokenize, lowercase, optional stem, drop
  // empties); context terms mirror the context matcher's AddTerms, which
  // stems unconditionally and keeps whatever the stemmer returns.
  std::vector<std::vector<std::string>> words(n);
  std::vector<std::vector<std::string>> context(n);
  std::vector<std::string> vocabulary;
  for (ElementId id = 0; id < n; ++id) {
    for (const std::string& raw : TokenizeToStrings(schema.element(id).name)) {
      std::string lower = ToLowerAscii(raw);
      std::string stemmed = PorterStem(lower);
      std::string word = options.name.stem ? stemmed : std::move(lower);
      if (!word.empty()) words[id].push_back(std::move(word));
      context[id].push_back(std::move(stemmed));
    }
    vocabulary.insert(vocabulary.end(), words[id].begin(), words[id].end());
    vocabulary.push_back(Join(words[id], ""));
    vocabulary.insert(vocabulary.end(), context[id].begin(),
                      context[id].end());
  }
  // The vocabulary sorted by text: index order is the legacy std::set
  // order every neighborhood iterates in.
  std::sort(vocabulary.begin(), vocabulary.end());
  vocabulary.erase(std::unique(vocabulary.begin(), vocabulary.end()),
                   vocabulary.end());
  auto index_of = [&vocabulary](const std::string& text) {
    return static_cast<uint32_t>(
        std::lower_bound(vocabulary.begin(), vocabulary.end(), text) -
        vocabulary.begin());
  };
  features->terms.reserve(vocabulary.size());
  for (const std::string& text : vocabulary) {
    features->terms.push_back(intern(text));
  }

  // Prepared names, mirroring NameMatcher::Prepare.
  features->names.resize(n);
  for (ElementId id = 0; id < n; ++id) {
    NameFeature& name = features->names[id];
    name.first_word = static_cast<uint32_t>(features->name_words.size());
    name.num_words = static_cast<uint32_t>(words[id].size());
    for (const std::string& word : words[id]) {
      features->name_words.push_back(index_of(word));
    }
    name.concat = index_of(Join(words[id], ""));
  }

  // Neighborhoods, mirroring NeighborhoodTermsWithGraph: the element, its
  // parent and siblings, its children and, for FK neighbors, the entities
  // linked to its containing entity. Siblings plus the element itself are
  // all of the parent's children, so the union over a parent's children
  // is computed once per parent instead of once per element.
  std::vector<std::vector<uint32_t>> own(n);
  for (ElementId id = 0; id < n; ++id) {
    for (const std::string& term : context[id]) {
      own[id].push_back(index_of(term));
    }
  }
  std::vector<std::vector<uint32_t>> children_union(n);
  for (ElementId id = 0; id < n; ++id) {
    for (ElementId child : schema.Children(id)) {
      Append(own[child], &children_union[id]);
    }
    SortedUnion(&children_union[id]);
  }
  std::vector<std::vector<uint32_t>> fk_union(n);
  if (options.context.include_fk_neighbors) {
    const EntityGraph graph(schema);
    for (ElementId id = 0; id < n; ++id) {
      if (schema.element(id).kind != ElementKind::kEntity) continue;
      for (ElementId neighbor : graph.Neighbors(id)) {
        Append(own[neighbor], &fk_union[id]);
      }
      SortedUnion(&fk_union[id]);
    }
  }
  std::map<std::vector<uint32_t>, uint32_t> classes;
  std::vector<uint32_t> terms;
  features->neighborhood.resize(n);
  for (ElementId id = 0; id < n; ++id) {
    terms = own[id];
    const ElementId parent = schema.element(id).parent;
    if (parent != kNoElement) {
      Append(own[parent], &terms);
      Append(children_union[parent], &terms);
    }
    Append(children_union[id], &terms);
    if (options.context.include_fk_neighbors) {
      const ElementId entity = schema.EntityOf(id);
      if (entity != kNoElement) Append(fk_union[entity], &terms);
    }
    SortedUnion(&terms);
    auto [it, added] = classes.emplace(
        terms, static_cast<uint32_t>(features->num_classes()));
    if (added) {
      Append(terms, &features->class_terms);
      features->class_offsets.push_back(
          static_cast<uint32_t>(features->class_terms.size()));
    }
    features->neighborhood[id] = it->second;
  }
  return features;
}

}  // namespace

PackedProfile PackProfile(const NgramProfile& profile) {
  PackedProfile packed;
  for (const auto& [gram, count] : profile) {
    packed.total += count;
    if (gram.size() <= kMaxPackedGram) {
      packed.packed.emplace_back(PackGram(gram), count);
    } else {
      packed.overflow.emplace_back(gram, count);
    }
  }
  std::sort(packed.packed.begin(), packed.packed.end());
  std::sort(packed.overflow.begin(), packed.overflow.end());
  return packed;
}

double PackedDice(const PackedProfile& a, const PackedProfile& b) {
  uint64_t intersection = 0;
  {
    size_t i = 0, j = 0;
    while (i < a.packed.size() && j < b.packed.size()) {
      if (a.packed[i].first == b.packed[j].first) {
        intersection += std::min(a.packed[i].second, b.packed[j].second);
        ++i;
        ++j;
      } else if (a.packed[i].first < b.packed[j].first) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  {
    size_t i = 0, j = 0;
    while (i < a.overflow.size() && j < b.overflow.size()) {
      const int cmp = a.overflow[i].first.compare(b.overflow[j].first);
      if (cmp == 0) {
        intersection += std::min(a.overflow[i].second, b.overflow[j].second);
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  if (a.total + b.total == 0) return 0.0;
  // The exact expression of DiceSimilarity: same integers, same division.
  return 2.0 * static_cast<double>(intersection) /
         static_cast<double>(a.total + b.total);
}

bool SameOptions(const NameMatcherOptions& a, const NameMatcherOptions& b) {
  return a.exhaustive_ngrams == b.exhaustive_ngrams && a.min_n == b.min_n &&
         a.max_n == b.max_n && a.stem == b.stem &&
         a.use_synonyms == b.use_synonyms;
}

bool SameOptions(const ContextMatcherOptions& a,
                 const ContextMatcherOptions& b) {
  return a.soft_alignment == b.soft_alignment &&
         a.soft_threshold == b.soft_threshold &&
         a.include_fk_neighbors == b.include_fk_neighbors;
}

TermDictionary::TermDictionary() : lineage_(NextIdentity()) {}

uint32_t TermDictionary::Find(const std::string& text) const {
  auto it = ids_.find(text);
  return it == ids_.end() ? kNotFound : it->second;
}

uint32_t TermDictionary::Intern(const std::string& text,
                                const NameMatcher& profiler) {
  auto [it, added] =
      ids_.emplace(text, static_cast<uint32_t>(terms_.size()));
  if (added) {
    // The profile source of truth: the same ProfileOf the legacy matcher
    // uses, so packed counts match the legacy NgramProfile exactly.
    terms_.push_back(
        TermFeature{text, PackProfile(profiler.WordProfile(text))});
  }
  return it->second;
}

DfTable::DfTable(std::shared_ptr<const TermDictionary> terms)
    : terms_(std::move(terms)) {}

void DfTable::ExtendTerms(std::shared_ptr<const TermDictionary> terms) {
  terms_ = std::move(terms);
}

void DfTable::AddDocument(const SchemaFeatures& features) {
  for (uint32_t term : features.terms) {
    if (term >= df_.size()) df_.resize(term + 1, 0);
    ++df_[term];
  }
  ++documents_;
}

void DfTable::RemoveDocument(const SchemaFeatures& features) {
  for (uint32_t term : features.terms) {
    if (term < df_.size() && df_[term] > 0) --df_[term];
  }
  if (documents_ > 0) --documents_;
}

double DfTable::Idf(uint32_t term) const {
  return std::log(1.0 + static_cast<double>(documents_) /
                            (1.0 + static_cast<double>(Df(term))));
}

double DfTable::Idf(const std::string& text) const {
  // kNotFound is past every counted id, so Df() reads 0 for it.
  return Idf(terms_->Find(text));
}

void MatchScratch::Bind(const MatchContext& context) {
  const SchemaFeatures& query = *context.query_features;
  const SchemaFeatures& candidate = *context.candidate_features;
  const uint64_t lineage = context.candidate_terms->lineage();
  query_ = &query;
  query_terms_ = context.query_terms;
  candidate_ = &candidate;
  candidate_terms_ = context.candidate_terms;
  if (query.serial != query_serial_ || lineage != candidate_lineage_) {
    // A new query, or candidate ids from another id space: nothing filled
    // so far applies.
    query_serial_ = query.serial;
    candidate_lineage_ = lineage;
    rows_ = query.terms.size();
    cells_.clear();
    slots_.assign(std::max<size_t>(64, slots_.size()),
                  {TermDictionary::kNotFound, 0});
    num_columns_ = 0;
  } else if (candidate.serial == candidate_serial_) {
    return;  // columns_ already maps this candidate's vocabulary
  }
  candidate_serial_ = candidate.serial;
  columns_.resize(candidate.terms.size());
  for (size_t c = 0; c < candidate.terms.size(); ++c) {
    columns_[c] = Column(candidate.terms[c]);
  }
}

uint32_t MatchScratch::Column(uint32_t term) {
  if (2 * (num_columns_ + 1) > slots_.size()) {
    // Keep the load under one half: rehash into twice the slots.
    std::vector<std::pair<uint32_t, uint32_t>> old(
        2 * slots_.size(), {TermDictionary::kNotFound, 0});
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const auto& slot : old) {
      if (slot.first == TermDictionary::kNotFound) continue;
      size_t i = MixHash64(slot.first) & mask;
      while (slots_[i].first != TermDictionary::kNotFound) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t i = MixHash64(term) & mask;
  while (slots_[i].first != TermDictionary::kNotFound) {
    if (slots_[i].first == term) return slots_[i].second;
    i = (i + 1) & mask;
  }
  const uint32_t column = static_cast<uint32_t>(num_columns_++);
  slots_[i] = {term, column};
  cells_.resize(cells_.size() + rows_,
                std::numeric_limits<double>::quiet_NaN());
  return column;
}

double MatchScratch::Fill(const NameMatcher& matcher, uint32_t q,
                          uint32_t c) {
  ++fills_;
  const TermFeature& a = query_terms_->term(query_->terms[q]);
  const TermFeature& b = candidate_terms_->term(candidate_->terms[c]);
  return a.text == b.text ? 1.0 : matcher.PreparedWordSimilarity(a, b);
}

std::shared_ptr<SchemaFeatures> BuildSchemaFeatures(
    const Schema& schema, const FeatureBuildOptions& options) {
  auto terms = std::make_shared<TermDictionary>();
  const NameMatcher profiler(options.name);
  auto features =
      BuildFeatures(schema, options, [&](const std::string& text) {
        return terms->Intern(text, profiler);
      });
  features->dictionary = std::move(terms);
  return features;
}

std::shared_ptr<SchemaFeatures> BuildSchemaFeatures(
    const Schema& schema, const FeatureBuildOptions& options,
    std::shared_ptr<const TermDictionary>* terms) {
  const NameMatcher profiler(options.name);
  std::shared_ptr<TermDictionary> extended;
  auto features =
      BuildFeatures(schema, options, [&](const std::string& text) {
        const uint32_t id = (*terms)->Find(text);
        if (id != TermDictionary::kNotFound) return id;
        if (extended == nullptr) {
          extended = std::make_shared<TermDictionary>(**terms);
          *terms = extended;
        }
        return extended->Intern(text, profiler);
      });
  return features;
}

void ComputeSignature(SchemaFeatures* features, const TermDictionary& terms,
                      const DfTable* df) {
  // A df table over the same id space weighs by id; any other (a query's
  // or a standalone build's private dictionary) by text. Both read the
  // same count.
  const bool same_ids =
      df != nullptr && df->terms()->lineage() == terms.lineage();
  SimHashAccumulator simhash;
  // SimHash votes: every gram of every name word, weighted by the word's
  // occurrence count and corpus IDF -- rare, discriminative words dominate
  // the bit pattern while boilerplate ("id", "name") barely moves it.
  for (uint32_t word : features->name_words) {
    const uint32_t id = features->terms[word];
    const TermFeature& term = terms.term(id);
    const double weight = df == nullptr ? 1.0
                          : same_ids    ? df->Idf(id)
                                        : df->Idf(term.text);
    for (const auto& [key, count] : term.profile.packed) {
      simhash.Add(MixHash64(key ^ kGramSeed), weight * count);
    }
    for (const auto& [gram, count] : term.profile.overflow) {
      simhash.Add(MixHash64(HashBytes(gram.data(), gram.size()) ^ kGramSeed),
                  weight * count);
    }
  }
  simhash.Finish(&features->signature);

  // MinHash sketch over the schema's whole term vocabulary (name words,
  // concats, context terms) -- a Jaccard estimate of shared vocabulary.
  MinHashAccumulator minhash;
  for (uint32_t id : features->terms) {
    const std::string& text = terms.term(id).text;
    minhash.Add(HashBytes(text.data(), text.size()));
  }
  minhash.Finish(&features->signature);
  SealSignature(&features->signature);
}

void ComputeSignature(SchemaFeatures* features, const DfTable* df) {
  ComputeSignature(features, *features->dictionary, df);
}

CatalogBuilder::CatalogBuilder(FeatureBuildOptions options)
    : options_(options),
      profiler_(options.name),
      terms_(std::make_shared<TermDictionary>()),
      df_(terms_) {}

void CatalogBuilder::Add(const Schema& schema) {
  Timer timer;
  auto features =
      BuildFeatures(schema, options_, [this](const std::string& text) {
        return terms_->Intern(text, profiler_);
      });
  df_.AddDocument(*features);
  features_[schema.id()] = std::move(features);
  add_seconds_ += timer.ElapsedSeconds();
}

std::shared_ptr<const MatchFeatureCatalog> CatalogBuilder::Build(
    const StoredSignatures* stored, CatalogBuildStats* stats) {
  Timer timer;
  uint64_t corpus_hash = 0;
  for (const auto& [id, features] : features_) {
    corpus_hash += MixHash64(features->content_hash ^ MixHash64(id));
  }
  const bool adoptable = stored != nullptr && stored->corpus_hash == corpus_hash;
  CatalogBuildStats local;
  local.schemas = features_.size();
  local.corrupt_records = stored != nullptr ? stored->corrupt_records : 0;
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>> frozen;
  frozen.reserve(features_.size());
  for (auto& [id, features] : features_) {
    const SchemaSignature* loaded = nullptr;
    if (adoptable) {
      auto it = stored->signatures.find(id);
      // Belt and braces: the loader already dropped CRC-invalid records,
      // but a signature must never be adopted unverified.
      if (it != stored->signatures.end() && VerifySignature(it->second)) {
        loaded = &it->second;
      }
    }
    if (loaded != nullptr) {
      features->signature = *loaded;
      ++local.signatures_loaded;
    } else {
      ComputeSignature(features.get(), *terms_, &df_);
      ++local.signatures_built;
    }
    frozen.emplace(id, std::move(features));
  }
  auto catalog = std::make_shared<const MatchFeatureCatalog>(
      options_, std::move(frozen), std::make_shared<const DfTable>(df_));
  // The catalog owns the dictionary now; start over so a later Add can
  // never mutate it.
  features_.clear();
  terms_ = std::make_shared<TermDictionary>();
  df_ = DfTable(terms_);
  local.seconds = add_seconds_ + timer.ElapsedSeconds();
  add_seconds_ = 0.0;
  if (stats != nullptr) *stats = local;
  return catalog;
}

MatchFeatureCatalog::MatchFeatureCatalog(
    FeatureBuildOptions options,
    std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
        features,
    std::shared_ptr<const DfTable> df)
    : options_(options), features_(std::move(features)), df_(std::move(df)) {}

const SchemaFeatures* MatchFeatureCatalog::Find(SchemaId id) const {
  auto it = features_.find(id);
  return it == features_.end() ? nullptr : it->second.get();
}

uint64_t MatchFeatureCatalog::CorpusHash() const {
  uint64_t hash = 0;
  for (const auto& [id, features] : features_) {
    hash += MixHash64(features->content_hash ^ MixHash64(id));
  }
  return hash;
}

namespace {

constexpr char kSignatureMagic[4] = {'S', 'S', 'I', 'G'};
constexpr uint32_t kSignatureVersion = 1;

/// On-disk record layout, packed manually (no struct padding games).
constexpr size_t kRecordPayload =
    sizeof(uint64_t) +                                       // schema id
    sizeof(uint64_t) * SchemaSignature::kSimHashWords +      // simhash
    sizeof(uint32_t) * SchemaSignature::kMinHashSlots +      // minhash
    sizeof(uint32_t);                                        // signature crc
constexpr size_t kRecordSize = kRecordPayload + sizeof(uint32_t);

void EncodeRecord(SchemaId id, const SchemaSignature& signature,
                  unsigned char* out) {
  size_t offset = 0;
  std::memcpy(out + offset, &id, sizeof(id));
  offset += sizeof(id);
  std::memcpy(out + offset, signature.simhash, sizeof(signature.simhash));
  offset += sizeof(signature.simhash);
  std::memcpy(out + offset, signature.minhash, sizeof(signature.minhash));
  offset += sizeof(signature.minhash);
  std::memcpy(out + offset, &signature.crc, sizeof(signature.crc));
  offset += sizeof(signature.crc);
  const uint32_t record_crc = Crc32(out, kRecordPayload);
  std::memcpy(out + offset, &record_crc, sizeof(record_crc));
}

bool DecodeRecord(const unsigned char* in, SchemaId* id,
                  SchemaSignature* signature) {
  uint32_t record_crc = 0;
  std::memcpy(&record_crc, in + kRecordPayload, sizeof(record_crc));
  if (record_crc != Crc32(in, kRecordPayload)) return false;
  size_t offset = 0;
  std::memcpy(id, in + offset, sizeof(*id));
  offset += sizeof(*id);
  std::memcpy(signature->simhash, in + offset, sizeof(signature->simhash));
  offset += sizeof(signature->simhash);
  std::memcpy(signature->minhash, in + offset, sizeof(signature->minhash));
  offset += sizeof(signature->minhash);
  std::memcpy(&signature->crc, in + offset, sizeof(signature->crc));
  return VerifySignature(*signature);
}

}  // namespace

Status SaveSignatures(const std::string& path,
                      const MatchFeatureCatalog& catalog) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write signatures to " + path);
  out.write(kSignatureMagic, sizeof(kSignatureMagic));
  const uint32_t version = kSignatureVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t corpus_hash = catalog.CorpusHash();
  out.write(reinterpret_cast<const char*>(&corpus_hash), sizeof(corpus_hash));
  const uint64_t count = catalog.features().size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  unsigned char record[kRecordSize];
  for (const auto& [id, features] : catalog.features()) {
    EncodeRecord(id, features->signature, record);
    out.write(reinterpret_cast<const char*>(record), sizeof(record));
  }
  out.close();
  if (!out) return Status::IOError("failed writing signatures to " + path);
  return Status::OK();
}

Result<StoredSignatures> LoadSignatures(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open signatures at " + path);
  char magic[4];
  uint32_t version = 0;
  StoredSignatures stored;
  uint64_t count = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&stored.corpus_hash),
          sizeof(stored.corpus_hash));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || std::memcmp(magic, kSignatureMagic, sizeof(magic)) != 0 ||
      version != kSignatureVersion) {
    return Status::ParseError("bad signature file header in " + path);
  }
  unsigned char record[kRecordSize];
  for (uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(record), sizeof(record));
    if (!in) {
      // Truncated tail: everything unread counts as corrupt, the records
      // already decoded stay usable.
      stored.corrupt_records += count - i;
      break;
    }
    SchemaId id = kNoSchema;
    SchemaSignature signature;
    if (DecodeRecord(record, &id, &signature)) {
      stored.signatures.emplace(id, signature);
    } else {
      ++stored.corrupt_records;
    }
  }
  return stored;
}

}  // namespace schemr
