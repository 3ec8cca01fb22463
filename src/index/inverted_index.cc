#include "index/inverted_index.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace schemr {

namespace {
constexpr std::string_view kMagic = "SIX2";  // SIX1 carried no corpus key
}

std::string InvertedIndex::TermKey(Field field, std::string_view term) {
  std::string key;
  key.reserve(term.size() + 1);
  key.push_back(static_cast<char>(field));
  key.append(term);
  return key;
}

void InvertedIndex::IndexText(uint32_t ordinal, Field field,
                              std::string_view text,
                              uint32_t* position_cursor) {
  std::vector<Token> tokens = analyzer_.Analyze(text);
  for (const Token& token : tokens) {
    uint32_t position = *position_cursor + token.position;
    std::string key = TermKey(field, token.text);
    std::vector<Posting>& list = postings_[key];
    if (list.empty() || list.back().doc != ordinal) {
      list.push_back(Posting{ordinal, 0, {}});
    }
    Posting& posting = list.back();
    ++posting.tf;
    posting.positions.push_back(position);
  }
  // Advance the cursor past this text (with a gap of 1 so the last token of
  // one element and the first of the next are not adjacent).
  uint32_t span = 0;
  for (const Token& token : tokens) span = std::max(span, token.position + 1);
  if (tokens.empty()) {
    // Even empty texts advance by the raw token count so positions stay
    // monotone; estimate from tokenization without filtering.
    span = static_cast<uint32_t>(Tokenize(text).size());
  }
  *position_cursor += span + 1;
  docs_[ordinal].field_lengths[static_cast<size_t>(field)] +=
      static_cast<uint32_t>(tokens.size());
}

Status InvertedIndex::AddDocument(const Document& doc) {
  assert(active_readers_.load(std::memory_order_acquire) == 0 &&
         "AddDocument during an active read epoch; mutate through "
         "VersionedIndex for search-while-ingest");
  static Counter* docs_added = MetricsRegistry::Global().GetCounter(
      "schemr_index_docs_added_total", "Documents added to inverted indexes.");
  auto it = external_to_ordinal_.find(doc.external_id);
  if (it != external_to_ordinal_.end() && !docs_[it->second].deleted) {
    return Status::AlreadyExists("document " +
                                 std::to_string(doc.external_id));
  }
  docs_added->Increment();
  // A tombstoned predecessor keeps its (skipped) slot until Vacuum; the
  // external id now maps to the fresh document.
  uint32_t ordinal = static_cast<uint32_t>(docs_.size());
  docs_.push_back(DocInfo{doc.external_id, doc.title, {0, 0, 0}, false});
  external_to_ordinal_[doc.external_id] = ordinal;
  ++live_docs_;

  uint32_t cursor = 0;
  IndexText(ordinal, Field::kTitle, doc.title, &cursor);
  cursor = 0;
  IndexText(ordinal, Field::kSummary, doc.summary, &cursor);
  cursor = 0;
  for (const std::string& element_text : doc.body) {
    IndexText(ordinal, Field::kBody, element_text, &cursor);
  }
  return Status::OK();
}

Status InvertedIndex::RemoveDocument(uint64_t external_id) {
  assert(active_readers_.load(std::memory_order_acquire) == 0 &&
         "RemoveDocument during an active read epoch; mutate through "
         "VersionedIndex for search-while-ingest");
  static Counter* docs_removed = MetricsRegistry::Global().GetCounter(
      "schemr_index_docs_removed_total",
      "Documents tombstoned in inverted indexes.");
  auto it = external_to_ordinal_.find(external_id);
  if (it == external_to_ordinal_.end() || docs_[it->second].deleted) {
    return Status::NotFound("document " + std::to_string(external_id));
  }
  docs_[it->second].deleted = true;
  --live_docs_;
  docs_removed->Increment();
  return Status::OK();
}

bool InvertedIndex::ContainsDocument(uint64_t external_id) const {
  auto it = external_to_ordinal_.find(external_id);
  return it != external_to_ordinal_.end() && !docs_[it->second].deleted;
}

const std::vector<Posting>* InvertedIndex::GetPostings(
    Field field, std::string_view term) const {
  auto it = postings_.find(TermKey(field, term));
  return it == postings_.end() ? nullptr : &it->second;
}

size_t InvertedIndex::DocFreq(Field field, std::string_view term) const {
  const std::vector<Posting>* list = GetPostings(field, term);
  return list == nullptr ? 0 : list->size();
}

void InvertedIndex::Vacuum() {
  assert(active_readers_.load(std::memory_order_acquire) == 0 &&
         "Vacuum during an active read epoch; mutate through "
         "VersionedIndex for search-while-ingest");
  // Map old ordinals to new ones, dropping tombstones.
  std::vector<uint32_t> remap(docs_.size(), UINT32_MAX);
  std::vector<DocInfo> new_docs;
  new_docs.reserve(live_docs_);
  for (uint32_t i = 0; i < docs_.size(); ++i) {
    if (docs_[i].deleted) continue;
    remap[i] = static_cast<uint32_t>(new_docs.size());
    new_docs.push_back(std::move(docs_[i]));
  }
  for (auto& [key, list] : postings_) {
    std::vector<Posting> kept;
    kept.reserve(list.size());
    for (Posting& p : list) {
      if (remap[p.doc] == UINT32_MAX) continue;
      p.doc = remap[p.doc];
      kept.push_back(std::move(p));
    }
    list = std::move(kept);
  }
  // Drop now-empty terms.
  for (auto it = postings_.begin(); it != postings_.end();) {
    if (it->second.empty()) {
      it = postings_.erase(it);
    } else {
      ++it;
    }
  }
  docs_ = std::move(new_docs);
  external_to_ordinal_.clear();
  for (uint32_t i = 0; i < docs_.size(); ++i) {
    external_to_ordinal_[docs_[i].external_id] = i;
  }
  live_docs_ = docs_.size();
}

Status InvertedIndex::Save(const std::string& path,
                          uint64_t corpus_key) const {
  std::string out;
  out.append(kMagic);
  PutFixed64(&out, corpus_key);

  // Analyzer options, so a loaded index analyzes queries identically.
  const AnalyzerOptions& ao = analyzer_.options();
  out.push_back(static_cast<char>(ao.lowercase));
  out.push_back(static_cast<char>(ao.remove_stopwords));
  out.push_back(static_cast<char>(ao.stem));
  PutVarint64(&out, ao.min_token_length);

  PutVarint64(&out, docs_.size());
  for (const DocInfo& doc : docs_) {
    PutVarint64(&out, doc.external_id);
    PutLengthPrefixed(&out, doc.title);
    for (uint32_t len : doc.field_lengths) PutVarint32(&out, len);
    out.push_back(static_cast<char>(doc.deleted));
  }

  // Terms in sorted order for deterministic files.
  std::map<std::string_view, const std::vector<Posting>*> sorted;
  for (const auto& [key, list] : postings_) sorted[key] = &list;
  PutVarint64(&out, sorted.size());
  for (const auto& [key, list] : sorted) {
    PutLengthPrefixed(&out, key);
    PutVarint64(&out, list->size());
    uint32_t prev_doc = 0;
    for (const Posting& p : *list) {
      PutVarint32(&out, p.doc - prev_doc);  // delta (first is absolute)
      prev_doc = p.doc;
      PutVarint32(&out, p.tf);
      PutVarint64(&out, p.positions.size());
      uint32_t prev_pos = 0;
      for (uint32_t pos : p.positions) {
        PutVarint32(&out, pos - prev_pos);
        prev_pos = pos;
      }
    }
  }

  // CRC footer over everything after the magic.
  uint32_t crc = Crc32(std::string_view(out).substr(kMagic.size()));
  PutFixed32(&out, Crc32Mask(crc));

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IOError("cannot write index file " + path);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  file.close();
  if (!file) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<InvertedIndex> InvertedIndex::Load(const std::string& path,
                                          uint64_t* corpus_key) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open index file " + path);
  std::string contents((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  file.close();

  std::string_view data(contents);
  if (data.size() < kMagic.size() + 4 ||
      data.substr(0, kMagic.size()) != kMagic) {
    return Status::Corruption("bad index magic in " + path);
  }
  data.remove_prefix(kMagic.size());

  // Verify the footer CRC before parsing anything else.
  std::string_view body = data.substr(0, data.size() - 4);
  std::string_view footer = data.substr(data.size() - 4);
  uint32_t masked_crc = 0;
  SCHEMR_RETURN_IF_ERROR(GetFixed32(&footer, &masked_crc));
  if (Crc32Unmask(masked_crc) != Crc32(body)) {
    return Status::Corruption("index checksum mismatch in " + path);
  }
  data = body;

  uint64_t key = 0;
  SCHEMR_RETURN_IF_ERROR(GetFixed64(&data, &key));
  if (data.size() < 4) return Status::Corruption("truncated index header");
  AnalyzerOptions ao;
  ao.lowercase = data[0] != 0;
  ao.remove_stopwords = data[1] != 0;
  ao.stem = data[2] != 0;
  data.remove_prefix(3);
  uint64_t min_len = 0;
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&data, &min_len));
  ao.min_token_length = static_cast<size_t>(min_len);

  InvertedIndex index(ao);
  uint64_t num_docs = 0;
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&data, &num_docs));
  if (num_docs > data.size()) {
    return Status::Corruption("doc count exceeds payload");
  }
  index.docs_.reserve(num_docs);
  for (uint64_t i = 0; i < num_docs; ++i) {
    DocInfo doc;
    SCHEMR_RETURN_IF_ERROR(GetVarint64(&data, &doc.external_id));
    std::string_view title;
    SCHEMR_RETURN_IF_ERROR(GetLengthPrefixed(&data, &title));
    doc.title = std::string(title);
    for (auto& len : doc.field_lengths) {
      SCHEMR_RETURN_IF_ERROR(GetVarint32(&data, &len));
    }
    if (data.empty()) return Status::Corruption("truncated doc info");
    doc.deleted = data.front() != 0;
    data.remove_prefix(1);
    // Duplicate external ids are legal only when at most one copy is
    // live (a tombstoned predecessor kept its slot); the mapping must
    // point at the live copy.
    auto existing = index.external_to_ordinal_.find(doc.external_id);
    if (existing != index.external_to_ordinal_.end()) {
      if (!doc.deleted && !index.docs_[existing->second].deleted) {
        return Status::Corruption("duplicate live external id in index");
      }
      if (!doc.deleted) {
        existing->second = static_cast<uint32_t>(index.docs_.size());
      }
    } else {
      index.external_to_ordinal_[doc.external_id] =
          static_cast<uint32_t>(index.docs_.size());
    }
    if (!doc.deleted) ++index.live_docs_;
    index.docs_.push_back(std::move(doc));
  }

  uint64_t num_terms = 0;
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&data, &num_terms));
  if (num_terms > data.size()) {
    return Status::Corruption("term count exceeds payload");
  }
  for (uint64_t t = 0; t < num_terms; ++t) {
    std::string_view key;
    SCHEMR_RETURN_IF_ERROR(GetLengthPrefixed(&data, &key));
    if (key.empty() || static_cast<uint8_t>(key[0]) >= kNumFields) {
      return Status::Corruption("bad term key");
    }
    uint64_t num_postings = 0;
    SCHEMR_RETURN_IF_ERROR(GetVarint64(&data, &num_postings));
    if (num_postings > data.size()) {
      return Status::Corruption("posting count exceeds payload");
    }
    std::vector<Posting> list;
    list.reserve(num_postings);
    uint32_t doc = 0;
    for (uint64_t p = 0; p < num_postings; ++p) {
      Posting posting;
      uint32_t delta = 0;
      SCHEMR_RETURN_IF_ERROR(GetVarint32(&data, &delta));
      doc = (p == 0) ? delta : doc + delta;
      if (doc >= index.docs_.size()) {
        return Status::Corruption("posting doc ordinal out of range");
      }
      posting.doc = doc;
      SCHEMR_RETURN_IF_ERROR(GetVarint32(&data, &posting.tf));
      uint64_t num_positions = 0;
      SCHEMR_RETURN_IF_ERROR(GetVarint64(&data, &num_positions));
      if (num_positions > data.size()) {
        return Status::Corruption("position count exceeds payload");
      }
      posting.positions.reserve(num_positions);
      uint32_t pos = 0;
      for (uint64_t q = 0; q < num_positions; ++q) {
        uint32_t pos_delta = 0;
        SCHEMR_RETURN_IF_ERROR(GetVarint32(&data, &pos_delta));
        pos = (q == 0) ? pos_delta : pos + pos_delta;
        posting.positions.push_back(pos);
      }
      list.push_back(std::move(posting));
    }
    index.postings_[std::string(key)] = std::move(list);
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes in index file");
  }
  if (corpus_key != nullptr) *corpus_key = key;
  return index;
}

}  // namespace schemr
