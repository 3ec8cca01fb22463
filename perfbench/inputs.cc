#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "corpus/query_workload.h"
#include "corpus/vocabulary.h"
#include "parse/ddl_writer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace schemr::perfbench {

namespace {

// name, corpus, keyword, example, zipf, warm-up, uploads, searches/upload
const WorkloadSpec kWorkloads[] = {
    {"keyword_30k", 30000, 2000, 0, 0.6, 800, 100, 0},
    {"example_2k", 2000, 0, 1100, 0.0, 200, 100, 0},
    {"ingest_10k", 10000, 210, 90, 0.0, 200, 1500, 10},
};

// Length of a Zipf-drawn request order; a run that exhausts it wraps.
constexpr size_t kZipfOrderLength = 60000;
// Exact shares of 2- and 3-table fragments (the rest have one table).
// A fragment's table count sets most of its matching cost, so every seed
// gets the same mix, and the send order keeps it in every stretch of a
// run (see Interleave): otherwise the seed alone moves example_2k's
// median by a third.
constexpr double kTwoTables = 0.35;
constexpr double kThreeTables = 0.15;

// The generator seed of every workload's corpus: the default run seed.
// Writing 30,000 schemas through SchemaRepository::Insert takes about a
// minute, which a run per seed cannot afford; the run seed draws the
// traffic.
constexpr uint64_t kCorpusSeed = 42;

// Independent streams derived from the one workload seed.
uint64_t HeldOutSeed(uint64_t seed) { return seed * 1000003 + 424242; }
uint64_t TrafficSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ull + 7; }

/// Order-insensitive key of a keyword string, so two requests the result
/// cache would treat as one are never counted as distinct.
std::string KeywordKey(const std::string& keywords) {
  std::vector<std::string> terms = Split(keywords, " ");
  std::sort(terms.begin(), terms.end());
  return Join(terms, " ");
}

QueryWorkloadOptions KeywordOptions() {
  QueryWorkloadOptions options;
  options.keywords_per_query = 4;
  options.fragment_prob = 0.0;
  return options;
}

const DomainConcept* ConceptById(const std::string& id) {
  for (const DomainConcept& dc : BuiltinConcepts()) {
    if (dc.id == id) return &dc;
  }
  return nullptr;
}

/// Cuts up to `max_tables` foreign-key-connected tables out of `source`:
/// each kept table keeps a random 70% of its columns (at least one, and
/// every column whose foreign key stays inside the fragment).
Schema CutFragment(const Schema& source, size_t max_tables, Rng* rng,
                   uint32_t* tables) {
  std::vector<ElementId> entities = source.Entities();
  std::map<ElementId, std::vector<ElementId>> neighbours;
  for (const ForeignKey& fk : source.foreign_keys()) {
    ElementId from = source.EntityOf(fk.attribute);
    if (from == kNoElement || from == fk.target_entity) continue;
    neighbours[from].push_back(fk.target_entity);
    neighbours[fk.target_entity].push_back(from);
  }
  std::vector<ElementId> chosen{entities[rng->NextBelow(entities.size())]};
  while (chosen.size() < max_tables) {
    std::vector<ElementId> frontier;
    for (ElementId e : chosen) {
      for (ElementId n : neighbours[e]) {
        if (std::find(chosen.begin(), chosen.end(), n) == chosen.end() &&
            std::find(frontier.begin(), frontier.end(), n) == frontier.end()) {
          frontier.push_back(n);
        }
      }
    }
    if (frontier.empty()) break;
    chosen.push_back(frontier[rng->NextBelow(frontier.size())]);
  }
  std::set<ElementId> inside(chosen.begin(), chosen.end());
  std::set<ElementId> fk_columns;
  for (const ForeignKey& fk : source.foreign_keys()) {
    if (inside.count(source.EntityOf(fk.attribute)) &&
        inside.count(fk.target_entity)) {
      fk_columns.insert(fk.attribute);
    }
  }

  Schema fragment("fragment");
  std::map<ElementId, ElementId> remap;
  for (ElementId e : chosen) {
    const ElementId table = fragment.AddEntity(source.element(e).name);
    remap[e] = table;
    ElementId first_column = kNoElement;
    size_t kept = 0;
    for (ElementId a : source.Children(e)) {
      const Element& column = source.element(a);
      if (column.kind != ElementKind::kAttribute) continue;
      if (first_column == kNoElement) first_column = a;
      if (!fk_columns.count(a) && rng->NextBool(0.3)) continue;
      remap[a] = fragment.AddAttribute(column.name, table, column.type);
      ++kept;
    }
    if (kept == 0 && first_column != kNoElement) {
      const Element& column = source.element(first_column);
      remap[first_column] =
          fragment.AddAttribute(column.name, table, column.type);
    }
  }
  for (const ForeignKey& fk : source.foreign_keys()) {
    auto attribute = remap.find(fk.attribute);
    auto target = remap.find(fk.target_entity);
    if (attribute == remap.end() || target == remap.end()) continue;
    auto target_column = remap.find(fk.target_attribute);
    fragment.AddForeignKey(attribute->second, target->second,
                           target_column == remap.end()
                               ? kNoElement
                               : target_column->second);
  }
  *tables = static_cast<uint32_t>(chosen.size());
  return fragment;
}

/// Merges `groups` (each already in its own order) so that every prefix
/// of the result holds each group in proportion to its size.
std::vector<uint32_t> Interleave(
    const std::vector<std::vector<uint32_t>>& groups) {
  size_t total = 0;
  for (const auto& group : groups) total += group.size();
  std::vector<size_t> taken(groups.size(), 0);
  std::vector<uint32_t> out;
  out.reserve(total);
  while (out.size() < total) {
    // The group furthest behind its share of the next position.
    size_t best = 0;
    double best_lag = -1.0;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (taken[g] == groups[g].size()) continue;
      const double lag =
          static_cast<double>(groups[g].size()) * (out.size() + 1) / total -
          static_cast<double>(taken[g]);
      if (lag > best_lag) {
        best_lag = lag;
        best = g;
      }
    }
    out.push_back(groups[best][taken[best]++]);
  }
  return out;
}

// --- serialization: decimal length, ':', bytes ------------------------------

void PutField(std::string* out, std::string_view field) {
  out->append(std::to_string(field.size()));
  out->push_back(':');
  out->append(field);
}

class FieldReader {
 public:
  explicit FieldReader(std::string_view data) : data_(data) {}

  bool Next(std::string* field) {
    const size_t colon = data_.find(':', pos_);
    if (colon == std::string_view::npos || colon == pos_) return false;
    uint64_t length = 0;
    for (size_t i = pos_; i < colon; ++i) {
      const char c = data_[i];
      if (c < '0' || c > '9' || length > data_.size()) return false;
      length = length * 10 + static_cast<uint64_t>(c - '0');
    }
    if (length > data_.size() - colon - 1) return false;
    field->assign(data_.substr(colon + 1, length));
    pos_ = colon + 1 + length;
    return true;
  }

  bool NextNumber(uint64_t* value) {
    std::string field;
    if (!Next(&field) || field.empty()) return false;
    char* end = nullptr;
    *value = std::strtoull(field.c_str(), &end, 10);
    return *end == '\0';
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

constexpr char kInputsMagic[] = "perfbench-inputs-1";

/// Everything but the fingerprint, in a fixed layout.
std::string SerializeBody(const Inputs& inputs) {
  std::string out;
  PutField(&out, kInputsMagic);
  PutField(&out, inputs.workload);
  PutField(&out, std::to_string(inputs.seed));
  PutField(&out, std::to_string(inputs.corpus_size));
  PutField(&out, std::to_string(inputs.searches.size()));
  for (const SearchItem& item : inputs.searches) {
    PutField(&out, item.keywords);
    PutField(&out, item.fragment);
    PutField(&out, std::to_string(item.fragment_tables));
  }
  PutField(&out, std::to_string(inputs.order.size()));
  for (uint32_t index : inputs.order) PutField(&out, std::to_string(index));
  PutField(&out, std::to_string(inputs.warmup));
  PutField(&out, std::to_string(inputs.uploads.size()));
  for (const Upload& upload : inputs.uploads) {
    PutField(&out, upload.name);
    PutField(&out, upload.ddl);
  }
  PutField(&out, std::to_string(inputs.searches_per_upload));
  return out;
}

void Fnv1a(uint64_t* hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *hash ^= c;
    *hash *= 0x100000001b3ull;
  }
  // Field separator, so ("ab", "c") and ("a", "bc") hash apart.
  *hash ^= 0xff;
  *hash *= 0x100000001b3ull;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<GeneratedSchema> GenerateWorkloadCorpus(const WorkloadSpec& spec) {
  CorpusOptions options;
  options.num_schemas = spec.corpus_size;
  options.seed = kCorpusSeed;
  return GenerateCorpus(options);
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.workload = spec.name;
  inputs.seed = seed;
  inputs.corpus_size = spec.corpus_size;
  inputs.warmup = static_cast<uint32_t>(spec.warmup_requests);
  inputs.searches_per_upload = static_cast<uint32_t>(spec.searches_per_upload);
  Rng rng(TrafficSeed(seed));
  const std::vector<DomainConcept>& concepts = BuiltinConcepts();
  const QueryWorkloadOptions keyword_options = KeywordOptions();

  std::set<std::string> seen;
  for (size_t attempts = 0; inputs.searches.size() < spec.keyword_requests &&
                            attempts < spec.keyword_requests * 50;
       ++attempts) {
    const DomainConcept& dc = concepts[rng.NextBelow(concepts.size())];
    WorkloadQuery query = MakeQueryForConcept(dc, &rng, keyword_options);
    if (query.keywords.empty() || !seen.insert(KeywordKey(query.keywords)).second) {
      continue;
    }
    inputs.searches.push_back({std::move(query.keywords), "", 0});
  }
  const size_t keyword_count = inputs.searches.size();

  // Held-out schemas (the generator at another seed) supply the
  // fragments and the uploads; none of them is in the corpus.
  CorpusOptions held_out_options;
  held_out_options.num_schemas = spec.example_requests * 6 + spec.uploads;
  held_out_options.seed = HeldOutSeed(seed);
  std::vector<GeneratedSchema> held_out = GenerateCorpus(held_out_options);
  // Fragments per table count, filled to exact quotas.
  const size_t three = static_cast<size_t>(spec.example_requests * kThreeTables + 0.5);
  const size_t two = static_cast<size_t>(spec.example_requests * kTwoTables + 0.5);
  const size_t quota[4] = {0, spec.example_requests - two - three, two, three};
  std::vector<std::vector<uint32_t>> by_tables(4);
  for (size_t next = 0; next + spec.uploads < held_out.size(); ++next) {
    size_t want = 0;
    for (size_t t = 3; t >= 1; --t) {
      if (by_tables[t].size() < quota[t] &&
          (want == 0 || quota[t] - by_tables[t].size() >
                            quota[want] - by_tables[want].size())) {
        want = t;
      }
    }
    if (want == 0) break;
    const GeneratedSchema& source = held_out[next];
    const DomainConcept* dc = ConceptById(source.concept_id);
    if (dc == nullptr || source.schema.NumEntities() == 0) continue;
    SearchItem item;
    Schema fragment = CutFragment(source.schema, want, &rng,
                                  &item.fragment_tables);
    if (by_tables[item.fragment_tables].size() >=
        quota[item.fragment_tables]) {
      continue;
    }
    item.keywords = MakeQueryForConcept(*dc, &rng, keyword_options).keywords;
    item.fragment = WriteDdl(fragment);
    if (!seen.insert(KeywordKey(item.keywords) + "\n" + item.fragment).second) {
      continue;
    }
    by_tables[item.fragment_tables].push_back(
        static_cast<uint32_t>(inputs.searches.size()));
    inputs.searches.push_back(std::move(item));
  }
  for (size_t t = 1; t <= 3; ++t) {
    if (by_tables[t].size() < quota[t]) {
      std::fprintf(stderr, "perfbench: only %zu of %zu %zu-table fragments\n",
                   by_tables[t].size(), quota[t], t);
      std::abort();
    }
  }
  for (size_t i = 0; i < spec.uploads; ++i) {
    const GeneratedSchema& source =
        held_out[held_out.size() - spec.uploads + i];
    inputs.uploads.push_back({source.schema.name(), WriteDdl(source.schema)});
  }

  const size_t distinct = inputs.searches.size();
  if (spec.zipf_exponent > 0.0) {
    // Popularity ranks are a random permutation of the distinct requests.
    std::vector<uint32_t> by_rank(distinct);
    for (size_t i = 0; i < distinct; ++i) by_rank[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&by_rank);
    ZipfSampler zipf(distinct, spec.zipf_exponent);
    inputs.order.reserve(kZipfOrderLength);
    for (size_t i = 0; i < kZipfOrderLength; ++i) {
      inputs.order.push_back(by_rank[zipf.Sample(&rng)]);
    }
  } else {
    // Each kind of request shuffled on its own, then interleaved so any
    // stretch of the cycle has the workload's mix.
    std::vector<std::vector<uint32_t>> groups(1);
    for (size_t i = 0; i < keyword_count; ++i) {
      groups[0].push_back(static_cast<uint32_t>(i));
    }
    for (size_t t = 1; t <= 3; ++t) groups.push_back(by_tables[t]);
    for (auto& group : groups) rng.Shuffle(&group);
    inputs.order = Interleave(groups);
  }
  return inputs;
}

uint64_t Fingerprint(const std::vector<GeneratedSchema>& corpus,
                     const Inputs& inputs) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const GeneratedSchema& generated : corpus) {
    Fnv1a(&hash, generated.schema.name());
    Fnv1a(&hash, generated.schema.description());
    Fnv1a(&hash, WriteDdl(generated.schema));
  }
  Fnv1a(&hash, SerializeBody(inputs));
  return hash;
}

Status WriteInputs(const std::string& path, const Inputs& inputs) {
  std::string bytes = SerializeBody(inputs);
  PutField(&bytes, std::to_string(inputs.fingerprint));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<Inputs> ReadInputs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  FieldReader reader(data);
  Inputs inputs;
  std::string field;
  uint64_t count = 0;
  uint64_t value = 0;
  auto bad = [&path]() { return Status::Corruption("malformed " + path); };
  if (!reader.Next(&field) || field != kInputsMagic) return bad();
  if (!reader.Next(&inputs.workload)) return bad();
  if (!reader.NextNumber(&inputs.seed)) return bad();
  if (!reader.NextNumber(&inputs.corpus_size)) return bad();
  if (!reader.NextNumber(&count) || count > data.size()) return bad();
  inputs.searches.resize(count);
  for (SearchItem& item : inputs.searches) {
    if (!reader.Next(&item.keywords) || !reader.Next(&item.fragment) ||
        !reader.NextNumber(&value)) {
      return bad();
    }
    item.fragment_tables = static_cast<uint32_t>(value);
  }
  if (!reader.NextNumber(&count) || count > data.size()) return bad();
  inputs.order.resize(count);
  for (uint32_t& index : inputs.order) {
    if (!reader.NextNumber(&value) || value >= inputs.searches.size()) {
      return bad();
    }
    index = static_cast<uint32_t>(value);
  }
  if (!reader.NextNumber(&value)) return bad();
  inputs.warmup = static_cast<uint32_t>(value);
  if (!reader.NextNumber(&count) || count > data.size()) return bad();
  inputs.uploads.resize(count);
  for (Upload& upload : inputs.uploads) {
    if (!reader.Next(&upload.name) || !reader.Next(&upload.ddl)) return bad();
  }
  if (!reader.NextNumber(&value)) return bad();
  inputs.searches_per_upload = static_cast<uint32_t>(value);
  if (!reader.NextNumber(&inputs.fingerprint) || !reader.done()) return bad();
  return inputs;
}

}  // namespace schemr::perfbench
