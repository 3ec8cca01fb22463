#include "index/searcher.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/timer.h"

namespace schemr {

namespace {

/// Per-document accumulator while scanning posting lists.
struct Accumulator {
  double score = 0.0;
  uint32_t matched_terms = 0;
  uint32_t last_term_index = UINT32_MAX;  // to count distinct terms once
  std::vector<uint32_t> body_positions;   // for optional proximity boost
};

/// Accumulators live in a flat vector indexed by doc ordinal -- the scan
/// is a plain array write instead of a hash probe per posting -- with a
/// touched-list so only the docs a query actually hit are visited and
/// reset afterwards (the vector itself is reused across searches on the
/// same thread; body_positions keeps its capacity too).
struct ScratchSpace {
  std::vector<Accumulator> accumulators;
  std::vector<uint32_t> touched;
};

ScratchSpace& Scratch(size_t doc_slots) {
  static thread_local ScratchSpace scratch;
  if (scratch.accumulators.size() < doc_slots) {
    scratch.accumulators.resize(doc_slots);
  }
  scratch.touched.clear();
  return scratch;
}

/// Work counters are accumulated in plain locals during the scan and
/// flushed with one atomic add each per search.
struct SearcherMetrics {
  Counter* searches;
  Counter* terms_looked_up;
  Counter* terms_found;
  Counter* postings_scanned;
  Counter* docs_scored;
  Histogram* seconds;

  static const SearcherMetrics& Get() {
    static const SearcherMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new SearcherMetrics{
          r.GetCounter("schemr_index_searches_total",
                       "TF/IDF searches executed."),
          r.GetCounter("schemr_index_terms_looked_up_total",
                       "Term-dictionary probes (term x field)."),
          r.GetCounter("schemr_index_terms_found_total",
                       "Dictionary probes that found a posting list."),
          r.GetCounter("schemr_index_postings_scanned_total",
                       "Postings iterated while scoring."),
          r.GetCounter("schemr_index_docs_scored_total",
                       "Distinct documents scored per search, summed."),
          r.GetHistogram("schemr_index_search_seconds",
                         "TF/IDF search latency."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

std::vector<ScoredDoc> Searcher::Search(std::string_view query_text,
                                        const SearchOptions& options) const {
  return SearchTerms(index_->analyzer().AnalyzeToStrings(query_text), options);
}

std::vector<ScoredDoc> Searcher::SearchTerms(
    const std::vector<std::string>& terms,
    const SearchOptions& options) const {
  // Declare the read epoch so an unsynchronized concurrent mutation trips
  // the index's debug assertion instead of racing silently.
  InvertedIndex::ReadScope read_scope(index_);
  const SearcherMetrics& metrics = SearcherMetrics::Get();
  metrics.searches->Increment();
  std::vector<ScoredDoc> results;
  if (terms.empty() || index_->NumDocs() == 0) return results;

  Timer timer;
  uint64_t terms_looked_up = 0;
  uint64_t terms_found = 0;
  uint64_t postings_scanned = 0;

  const double num_docs = static_cast<double>(index_->NumDocs());
  // Tombstoned documents keep their postings until Vacuum(). Counting them
  // in df would make IDF depend on the corpus's edit history, so an index
  // maintained through updates and removals would rank differently from a
  // fresh build of the same documents; df counts live documents instead.
  const bool has_tombstones = index_->TotalDocSlots() != index_->NumDocs();
  ScratchSpace& scratch = Scratch(index_->TotalDocSlots());
  std::vector<Accumulator>& accumulators = scratch.accumulators;
  std::vector<uint32_t>& touched = scratch.touched;

  // Deduplicate query terms but keep multiplicity as a per-term weight, so
  // "patient patient height" weighs `patient` twice (as summing
  // independently per term would). The weights sit in a vector parallel to
  // unique_terms, keeping the posting scan free of dictionary lookups.
  std::unordered_map<std::string, uint32_t> term_index_of;
  std::vector<std::string> unique_terms;
  std::vector<double> term_weights;
  for (const std::string& term : terms) {
    auto [it, inserted] = term_index_of.emplace(term, unique_terms.size());
    if (inserted) {
      unique_terms.push_back(term);
      term_weights.push_back(1.0);
    } else {
      term_weights[it->second] += 1.0;
    }
  }

  for (uint32_t term_index = 0; term_index < unique_terms.size();
       ++term_index) {
    const std::string& term = unique_terms[term_index];
    const double term_weight = term_weights[term_index];
    for (size_t f = 0; f < kNumFields; ++f) {
      Field field = static_cast<Field>(f);
      ++terms_looked_up;
      const std::vector<Posting>* postings = index_->GetPostings(field, term);
      if (postings == nullptr) continue;
      ++terms_found;
      postings_scanned += postings->size();
      size_t live = postings->size();
      if (has_tombstones) {
        live = 0;
        for (const Posting& posting : *postings) {
          live += index_->doc_info(posting.doc).deleted ? 0 : 1;
        }
      }
      const double df = static_cast<double>(live);
      const double idf = 1.0 + std::log(num_docs / (df + 1.0));
      for (const Posting& posting : *postings) {
        const DocInfo& doc = index_->doc_info(posting.doc);
        if (doc.deleted) continue;
        const uint32_t field_len = doc.field_lengths[f];
        if (field_len == 0) continue;
        const double norm = 1.0 / std::sqrt(static_cast<double>(field_len));
        const double tf = std::sqrt(static_cast<double>(posting.tf));
        Accumulator& acc = accumulators[posting.doc];
        if (acc.last_term_index == UINT32_MAX) touched.push_back(posting.doc);
        acc.score +=
            term_weight * tf * idf * idf * options.field_boosts[f] * norm;
        if (acc.last_term_index != term_index) {
          acc.last_term_index = term_index;
          ++acc.matched_terms;
        }
        if (options.proximity_boost > 0.0 && field == Field::kBody) {
          acc.body_positions.insert(acc.body_positions.end(),
                                    posting.positions.begin(),
                                    posting.positions.end());
        }
      }
    }
  }

  const double num_query_terms = static_cast<double>(unique_terms.size());
  results.reserve(touched.size());
  for (uint32_t ordinal : touched) {
    Accumulator& acc = accumulators[ordinal];
    double score = acc.score;
    if (options.use_coordination_factor) {
      score *= static_cast<double>(acc.matched_terms) / num_query_terms;
    }
    if (options.proximity_boost > 0.0 && acc.matched_terms > 1 &&
        acc.body_positions.size() > 1) {
      // Reward tight position spans of matched terms in the body: a span
      // equal to the number of matches is perfect adjacency.
      std::sort(acc.body_positions.begin(), acc.body_positions.end());
      double span = static_cast<double>(acc.body_positions.back() -
                                        acc.body_positions.front() + 1);
      double tightness =
          static_cast<double>(acc.body_positions.size()) / span;
      score *= 1.0 + options.proximity_boost * std::min(1.0, tightness);
    }
    const DocInfo& doc = index_->doc_info(ordinal);
    results.push_back(
        ScoredDoc{doc.external_id, score, acc.matched_terms, doc.title});
    // Sparse reset: the flat vector must read as untouched next search.
    acc.score = 0.0;
    acc.matched_terms = 0;
    acc.last_term_index = UINT32_MAX;
    acc.body_positions.clear();
  }

  // Top-n by score, ties broken by external id for determinism.
  auto better = [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.external_id < b.external_id;
  };
  if (results.size() > options.top_n) {
    std::partial_sort(results.begin(), results.begin() + options.top_n,
                      results.end(), better);
    results.resize(options.top_n);
  } else {
    std::sort(results.begin(), results.end(), better);
  }

  metrics.terms_looked_up->Increment(terms_looked_up);
  metrics.terms_found->Increment(terms_found);
  metrics.postings_scanned->Increment(postings_scanned);
  metrics.docs_scored->Increment(touched.size());
  metrics.seconds->Observe(timer.ElapsedSeconds());
  return results;
}

}  // namespace schemr
