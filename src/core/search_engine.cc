#include "core/search_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <optional>
#include <queue>

#include "core/fingerprint.h"
#include "core/query_parser.h"
#include "core/result_cache.h"
#include "match/features.h"
#include "match/signature.h"
#include "obs/fault_bridge.h"
#include "obs/metrics.h"
#include "util/executor.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace schemr {

namespace {

/// Metric handles are resolved once; the increment path is lock-free.
struct EngineMetrics {
  Counter* searches;
  Counter* search_errors;
  Counter* searches_degraded;
  Counter* matcher_failures;
  Counter* candidates_extracted;
  Counter* candidates_pruned;
  Counter* candidates_skipped;
  Counter* prefilter_rejected;
  Counter* memo_lookups;
  Counter* memo_fills;
  Histogram* total_seconds;
  Histogram* phase1_seconds;
  Histogram* phase2_seconds;
  Histogram* phase3_seconds;
  Histogram* pool_size;

  static const EngineMetrics& Get() {
    static const EngineMetrics* metrics = [] {
      InstallFaultMetricsBridge();
      MetricsRegistry& r = MetricsRegistry::Global();
      static const std::vector<double> pool_bounds{1,  2,   5,   10,  25,
                                                   50, 100, 250, 500, 1000};
      auto* m = new EngineMetrics{
          r.GetCounter("schemr_search_requests_total",
                       "Search pipeline invocations."),
          r.GetCounter("schemr_search_errors_total",
                       "Searches that returned a non-OK status."),
          r.GetCounter("schemr_searches_degraded_total",
                       "Searches that returned degraded (best-effort) "
                       "results after a matcher failure or deadline."),
          r.GetCounter("schemr_matcher_failures_total",
                       "Matchers benched mid-search (threw, faulted, or "
                       "exceeded their time budget)."),
          r.GetCounter("schemr_search_candidates_extracted_total",
                       "Phase-1 candidates handed to the match phase."),
          r.GetCounter("schemr_search_candidates_pruned_total",
                       "Pool candidates dropped by ranking/pagination."),
          r.GetCounter("schemr_search_candidates_skipped_total",
                       "Candidates whose phases 2/3 were skipped by "
                       "score-bound pruning (exact; the returned window "
                       "never changes)."),
          r.GetCounter("schemr_search_prefilter_rejected_total",
                       "Candidates rejected by the signature pre-filter "
                       "before any matcher ran (approximate mode; "
                       "explicit opt-in per request)."),
          r.GetCounter("schemr_match_pair_memo_lookups_total",
                       "Term-pair similarities read from the per-query "
                       "memo by the name and context matchers."),
          r.GetCounter("schemr_match_pair_memo_fills_total",
                       "Term-pair similarities the per-query memo had to "
                       "compute (lookups minus fills were reused)."),
          r.GetHistogram("schemr_search_seconds",
                         "End-to-end search latency."),
          r.GetHistogram("schemr_search_phase1_seconds",
                         "Phase 1 (candidate extraction) latency."),
          r.GetHistogram("schemr_search_phase2_seconds",
                         "Phase 2 (matcher ensemble) latency per search."),
          r.GetHistogram("schemr_search_phase3_seconds",
                         "Phase 3 (tightness-of-fit) latency per search."),
          r.GetHistogram("schemr_search_pool_size",
                         "Phase-1 candidate pool size per search.",
                         pool_bounds),
      };
      return m;
    }();
    return *metrics;
  }
};

/// The running pruning floor: once `k` final (unboosted) scores have been
/// observed, floor() is the k-th best of them, published through an
/// atomic so the hot-path check never takes the lock. The floor only
/// rises, so a candidate whose score bound is strictly below it at ANY
/// moment is strictly below the final k-th best score too -- skipping it
/// can never change the returned window.
class TopKFloor {
 public:
  explicit TopKFloor(size_t k) : k_(k) {}

  void Observe(double score) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (heap_.size() < k_) {
      heap_.push(score);
      if (heap_.size() == k_) {
        floor_.store(heap_.top(), std::memory_order_release);
      }
    } else if (score > heap_.top()) {
      heap_.pop();
      heap_.push(score);
      floor_.store(heap_.top(), std::memory_order_release);
    }
  }

  /// -inf until k scores have been observed (prune nothing early).
  double floor() const { return floor_.load(std::memory_order_acquire); }

 private:
  const size_t k_;
  std::mutex mutex_;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      heap_;
  std::atomic<double> floor_{-std::numeric_limits<double>::infinity()};
};

/// Per-worker tallies, merged into the pool-wide totals once per worker
/// (not per candidate) so the scoring loop stays contention-free.
struct WorkerTally {
  double phase2_seconds = 0.0;
  double phase3_seconds = 0.0;
  size_t candidates_matched = 0;
  size_t candidates_scored = 0;
  size_t coarse_only = 0;
  size_t skipped = 0;
  size_t prefilter_rejected = 0;
  size_t matched_elements = 0;
  double tightness_penalty = 0.0;
  uint64_t memo_lookups = 0;
  uint64_t memo_fills = 0;
};

}  // namespace

SearchEngine::SearchEngine(const SchemaRepository* repository,
                           const InvertedIndex* index,
                           MatcherEnsemble ensemble)
    : annotations_(repository), ensemble_(std::move(ensemble)) {
  // Non-owning alias: the caller keeps *index alive.
  Result<std::shared_ptr<const CorpusSnapshot>> pinned = PinSnapshot(
      *repository, std::shared_ptr<const InvertedIndex>(
                       std::shared_ptr<const InvertedIndex>(), index));
  pin_status_ = pinned.status();
  if (pinned.ok()) pinned_ = *std::move(pinned);
}

SearchEngine::SearchEngine(std::shared_ptr<const CorpusSnapshot> snapshot,
                           MatcherEnsemble ensemble,
                           const SchemaRepository* annotations)
    : pinned_(std::move(snapshot)),
      annotations_(annotations),
      ensemble_(std::move(ensemble)) {
  if (pinned_ == nullptr || pinned_->index == nullptr ||
      pinned_->schemas == nullptr || pinned_->match_features == nullptr) {
    pin_status_ = Status::InvalidArgument(
        "a pinned corpus snapshot needs an index, a schema view and a "
        "match-feature catalog");
  }
}

Result<std::shared_ptr<const CorpusSnapshot>> SearchEngine::Snapshot() const {
  if (corpus_ != nullptr) return corpus_->Snapshot();
  if (!pin_status_.ok()) return pin_status_;
  return pinned_;
}

Result<std::vector<SearchResult>> SearchEngine::Search(
    const QueryGraph& query, const SearchEngineOptions& options) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.searches->Increment();
  // Snapshot isolation: acquire the snapshot once and run every phase
  // against it. Ingest commits that land mid-search publish new snapshots
  // and never touch this one; a pinned engine uses the same snapshot for
  // every search.
  Result<std::shared_ptr<const CorpusSnapshot>> acquired = Snapshot();
  Status refused = acquired.status();
  if (refused.ok() && query.empty()) {
    refused = Status::InvalidArgument("empty query graph");
  }
  if (refused.ok() && options.annotation_boost > 0.0 &&
      annotations_ == nullptr) {
    refused = Status::InvalidArgument(
        "annotation_boost needs an annotation repository, and this engine "
        "was built without one");
  }
  if (!refused.ok()) {
    metrics.search_errors->Increment();
    return refused;
  }
  const std::shared_ptr<const CorpusSnapshot> snapshot = *std::move(acquired);
  const MatchFeatureCatalog& catalog = *snapshot->match_features;

  Timer total_timer;
  SearchTrace* trace = options.trace;
  TraceSpan root_span(trace, "search");
  if (trace != nullptr) {
    trace->Annotate(root_span.id(), "corpus_version", snapshot->version);
  }

  // Result cache: a search is pure in (query, snapshot, options), so a
  // hit returns the stored ranked list with zero pipeline work. Requires
  // no live annotation reads and no explain trace (explain exists to show
  // the pipeline running).
  const bool cache_eligible = result_cache_ != nullptr &&
                              !options.cache_bypass &&
                              options.annotation_boost == 0.0 &&
                              trace == nullptr;
  ResultCacheKey cache_key;
  if (cache_eligible) {
    cache_key.fingerprint = FingerprintQuery(query);
    cache_key.corpus_version = snapshot->version;
    cache_key.options_hash = HashSearchOptions(options);
    if (auto cached = result_cache_->Get(cache_key)) {
      const double elapsed = total_timer.ElapsedSeconds();
      if (options.stats != nullptr) {
        *options.stats = SearchStats{};
        options.stats->cache_hit = true;
        options.stats->total_seconds = elapsed;
      }
      metrics.total_seconds->Observe(elapsed);
      return *cached;
    }
  }

  // Phase 1: candidate extraction.
  Timer phase_timer;
  TraceSpan phase1_span(trace, "phase1_extract");
  CandidateExtractor extractor(snapshot->index.get());
  std::vector<Candidate> candidates =
      extractor.Extract(query, options.extraction);
  phase1_span.Annotate("pool_requested",
                       static_cast<uint64_t>(options.extraction.pool_size));
  phase1_span.Annotate("pool_size", static_cast<uint64_t>(candidates.size()));
  phase1_span.End();
  const double phase1_elapsed = phase_timer.ElapsedSeconds();
  metrics.phase1_seconds->Observe(phase1_elapsed);
  metrics.pool_size->Observe(static_cast<double>(candidates.size()));
  metrics.candidates_extracted->Increment(candidates.size());
  if (candidates.empty()) {
    if (options.stats != nullptr) {
      options.stats->phase1_seconds = phase1_elapsed;
      options.stats->total_seconds = total_timer.ElapsedSeconds();
    }
    metrics.total_seconds->Observe(total_timer.ElapsedSeconds());
    return std::vector<SearchResult>{};
  }

  double max_coarse = 0.0;
  for (const Candidate& c : candidates) {
    max_coarse = std::max(max_coarse, c.coarse_score);
  }
  if (max_coarse <= 0.0) max_coarse = 1.0;

  const Schema& query_schema = query.AsSchema();

  // --- Columnar feature prep (DESIGN.md §16) -----------------------------
  //
  // The query's own features are built ONCE here and each candidate's
  // precomputed features come from the snapshot's catalog. Only a request
  // that opts into the approximate screen (options.prefilter > 0) signs
  // the query, to reject low-similarity candidates outright; exact search
  // does no signature work.
  Timer prep_timer;
  const bool prefilter_active =
      options.enable_matching && options.prefilter > 0.0;
  std::shared_ptr<SchemaFeatures> query_features;
  std::vector<double> signature_similarity;
  if (options.enable_matching) {
    query_features = BuildSchemaFeatures(query_schema, catalog.options());
  }
  if (prefilter_active) {
    ComputeSignature(query_features.get(), &catalog.df());
    signature_similarity.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const SchemaFeatures* f = catalog.Find(candidates[i].schema_id);
      // A schema missing from the catalog is never screened out.
      signature_similarity[i] =
          f != nullptr
              ? EstimatedSimilarity(query_features->signature, f->signature)
              : 1.0;
    }
  }
  const double prep_seconds = prep_timer.ElapsedSeconds();

  // --- Phases 2+3: parallel candidate scoring ----------------------------
  //
  // Candidate i is scored into slots[i] by whichever worker claims i off
  // the shared cursor, so the compacted output is in candidate order no
  // matter how many threads ran or how they interleaved: the ranked list
  // (and therefore the result digest) is bit-identical to serial
  // execution at any scoring_threads. The request thread always
  // participates; pool helpers are a latency optimization that may be
  // shed when the engine pool is saturated by concurrent searches.
  const size_t num_matchers = ensemble_.NumMatchers();
  // Per-matcher wall time feeds both the trace and the budget check.
  const bool track_matcher_time =
      trace != nullptr || options.matcher_budget_seconds > 0.0;
  // Benching and budget accounting live in one synchronized state so a
  // matcher failing under several workers at once is benched exactly once.
  DegradationState degradation(ensemble_.MatcherNames(),
                               options.matcher_budget_seconds);

  std::vector<SearchResult> slots(candidates.size());
  std::vector<char> included(candidates.size(), 0);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> deadline_hit{false};
  std::atomic<bool> failed{false};
  std::mutex merge_mutex;
  Status first_error;
  double phase2_elapsed = 0.0;
  double phase3_elapsed = 0.0;
  size_t candidates_matched = 0;
  size_t candidates_scored = 0;
  size_t coarse_only_candidates = 0;
  size_t candidates_skipped = 0;
  size_t matched_elements_total = 0;
  double tightness_penalty_total = 0.0;

  // Score-bound pruning floor over the first offset+top_k ranks. Inactive
  // when the window covers the whole pool (nothing could be excluded) or
  // in the matching-off ablation (phases 2/3 do not run anyway).
  const size_t prune_window = options.offset + options.top_k;
  const bool prune = options.enable_pruning && options.enable_matching &&
                     prune_window > 0 && prune_window < candidates.size();
  std::optional<TopKFloor> floor;
  if (prune) floor.emplace(prune_window);
  // The floor tracks unboosted scores while ranking boosts by a factor in
  // [1, 1+boost]; scaling the bound by the ceiling keeps pruning exact
  // under annotation boost (DESIGN.md §11).
  const double bound_ceiling = 1.0 + std::max(0.0, options.annotation_boost);

  auto score_candidate = [&](size_t i, WorkerTally* tally,
                             std::vector<char>* benched_scratch,
                             std::vector<double>* seconds_scratch,
                             MatchScratch* match_scratch) -> bool {
    const Candidate& candidate = candidates[i];
    if (prefilter_active && signature_similarity[i] < options.prefilter) {
      // Approximate mode: screened out before any matcher runs. The slot
      // stays excluded -- the candidate is out of the ranking entirely.
      ++tally->prefilter_rejected;
      return true;
    }
    // The schema comes from the same snapshot the candidates did, so the
    // id always resolves even if the schema was removed after Snapshot().
    auto resolved = snapshot->schemas->Get(candidate.schema_id);
    if (!resolved.ok()) {
      std::lock_guard<std::mutex> lock(merge_mutex);
      if (first_error.ok()) first_error = resolved.status();
      failed.store(true, std::memory_order_release);
      return false;
    }
    const Schema& schema = *resolved;

    SearchResult& result = slots[i];
    result.schema_id = candidate.schema_id;
    result.name = schema.name();
    result.description = schema.description();
    result.coarse_score = candidate.coarse_score;
    result.num_entities = schema.NumEntities();
    result.num_attributes = schema.NumAttributes();

    const double coarse_norm = candidate.coarse_score / max_coarse;

    if (!options.enable_matching) {
      // Ablation: phase 1 only.
      result.score = coarse_norm;
      included[i] = 1;
      return true;
    }

    if (floor.has_value()) {
      // score = blend·coarse_norm + (1-blend)·tightness with tightness in
      // [0, 1] (matcher cells are clamped to [0, 1]; tightness is a
      // penalized mean of them, optionally scaled by coverage <= 1), so
      // the bound is exact: strictly below the floor means phases 2/3
      // cannot move this candidate into the returned window.
      const double bound = (options.coarse_blend * coarse_norm +
                            (1.0 - options.coarse_blend)) *
                           bound_ceiling;
      if (bound < floor->floor()) {
        ++tally->skipped;
        return true;  // slot stays excluded
      }
    }

    if (!deadline_hit.load(std::memory_order_relaxed) &&
        options.deadline_seconds > 0.0 &&
        total_timer.ElapsedSeconds() > options.deadline_seconds) {
      deadline_hit.store(true, std::memory_order_relaxed);
    }
    degradation.SnapshotBenched(benched_scratch);
    bool all_benched = true;
    for (char b : *benched_scratch) all_benched = all_benched && b != 0;
    if (deadline_hit.load(std::memory_order_relaxed) || all_benched) {
      // Out of time (or out of matchers): fall back to the phase-1
      // ranking for this candidate rather than failing the search.
      result.score = coarse_norm;
      ++tally->coarse_only;
      included[i] = 1;
      if (floor.has_value()) floor->Observe(coarse_norm);
      return true;
    }

    // Phase 2: schema matching (matchers isolated by the ensemble; the
    // benched snapshot is this worker's private copy, so a concurrent
    // bench never races the ensemble's skip reads).
    Timer candidate_timer;
    if (track_matcher_time) seconds_scratch->assign(num_matchers, 0.0);
    MatchContext match_context{query_features.get(),
                               query_features->dictionary.get(),
                               catalog.Find(candidate.schema_id),
                               &catalog.terms(), match_scratch};
    std::shared_ptr<SchemaFeatures> standalone;
    if (match_context.candidate_features == nullptr) {
      // Not in the catalog: features built here, in a private dictionary,
      // run through the same kernel.
      standalone = BuildSchemaFeatures(schema, catalog.options());
      match_context.candidate_features = standalone.get();
      match_context.candidate_terms = standalone->dictionary.get();
    }
    EnsembleResult ensemble_result = ensemble_.Match(
        query_schema, schema,
        track_matcher_time ? seconds_scratch : nullptr, benched_scratch,
        &match_context);
    SimilarityMatrix combined = std::move(ensemble_result.combined);
    tally->phase2_seconds += candidate_timer.ElapsedSeconds();
    ++tally->candidates_matched;
    const size_t newly_benched = degradation.Observe(
        ensemble_result.failed, *benched_scratch,
        track_matcher_time ? seconds_scratch : nullptr);
    if (newly_benched > 0) metrics.matcher_failures->Increment(newly_benched);

    if (!options.enable_tightness) {
      // Ablation: rank by the unpenalized mean of matched element scores.
      double sum = 0.0;
      size_t matched = 0;
      for (ElementId e = 0; e < schema.size(); ++e) {
        double s = combined.ColumnMax(e);
        if (s >= options.tightness.match_threshold) {
          sum += s;
          ++matched;
          result.matched_elements.push_back(MatchedElement{e, s, s});
        }
      }
      double mean = matched == 0 ? 0.0 : sum / static_cast<double>(matched);
      if (options.tightness.scale_by_query_coverage) {
        mean *= QueryCoverage(combined, options.tightness.match_threshold);
      }
      result.num_matches = matched;
      result.tightness = mean;
      result.score = options.coarse_blend * coarse_norm +
                     (1.0 - options.coarse_blend) * mean;
      included[i] = 1;
      if (floor.has_value()) floor->Observe(result.score);
      return true;
    }

    // Phase 3: tightness-of-fit, reading the candidate's entity
    // neighborhoods from its features.
    candidate_timer.Reset();
    TightnessResult tof = ComputeTightnessOfFit(
        schema, match_context.candidate_features->component, combined,
        options.tightness);
    tally->phase3_seconds += candidate_timer.ElapsedSeconds();
    ++tally->candidates_scored;
    tally->matched_elements += tof.matched.size();
    for (const MatchedElement& m : tof.matched) {
      tally->tightness_penalty += m.score - m.penalized_score;
    }
    result.tightness = tof.score;
    result.best_anchor = tof.best_anchor;
    result.num_matches = tof.matched.size();
    result.matched_elements = std::move(tof.matched);
    result.score = options.coarse_blend * coarse_norm +
                   (1.0 - options.coarse_blend) * tof.score;
    included[i] = 1;
    if (floor.has_value()) floor->Observe(result.score);
    return true;
  };

  size_t prefilter_rejected_total = 0;
  uint64_t memo_lookups_total = 0;
  uint64_t memo_fills_total = 0;
  auto run_worker = [&] {
    WorkerTally tally;
    std::vector<char> benched_scratch;
    std::vector<double> seconds_scratch(num_matchers, 0.0);
    // This worker's term-pair memo for this query: it lives across every
    // candidate the worker claims, so a pair shared by many candidates is
    // computed once.
    MatchScratch match_scratch;
    for (;;) {
      if (failed.load(std::memory_order_acquire)) break;
      const size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      if (next >= candidates.size()) break;
      if (!score_candidate(next, &tally, &benched_scratch, &seconds_scratch,
                           &match_scratch)) {
        break;
      }
    }
    tally.memo_lookups = match_scratch.lookups();
    tally.memo_fills = match_scratch.fills();
    std::lock_guard<std::mutex> lock(merge_mutex);
    phase2_elapsed += tally.phase2_seconds;
    phase3_elapsed += tally.phase3_seconds;
    candidates_matched += tally.candidates_matched;
    candidates_scored += tally.candidates_scored;
    coarse_only_candidates += tally.coarse_only;
    candidates_skipped += tally.skipped;
    prefilter_rejected_total += tally.prefilter_rejected;
    matched_elements_total += tally.matched_elements;
    tightness_penalty_total += tally.tightness_penalty;
    memo_lookups_total += tally.memo_lookups;
    memo_fills_total += tally.memo_fills;
  };

  const size_t scoring_threads = std::max<size_t>(1, options.scoring_threads);
  const size_t helpers_wanted =
      std::min(scoring_threads - 1, candidates.size() - 1);
  struct HelperSync {
    std::mutex mutex;
    std::condition_variable done_cv;
    size_t pending = 0;
  };
  HelperSync sync;
  std::shared_ptr<BoundedExecutor> pool;
  if (helpers_wanted > 0) {
    pool = ScoringPool(helpers_wanted);
    for (size_t h = 0; h < helpers_wanted; ++h) {
      {
        std::lock_guard<std::mutex> lock(sync.mutex);
        ++sync.pending;
      }
      Status submitted = pool->TrySubmit([&](bool cancelled) {
        if (!cancelled) run_worker();
        std::lock_guard<std::mutex> lock(sync.mutex);
        --sync.pending;
        sync.done_cv.notify_all();
      });
      if (!submitted.ok()) {
        // Pool saturated (or shut down): fewer helpers, same answer. The
        // request thread drains the cursor regardless, so parallelism is
        // an optimization, never a dependency.
        std::lock_guard<std::mutex> lock(sync.mutex);
        --sync.pending;
        break;
      }
    }
  }
  FaultInjector::Global().Perturb("engine/score/start");
  run_worker();
  if (helpers_wanted > 0) {
    // Helpers signalled completion (or cancellation) exactly once each;
    // this wait cannot strand and orders their slot writes before the
    // compaction below.
    std::unique_lock<std::mutex> lock(sync.mutex);
    sync.done_cv.wait(lock, [&sync] { return sync.pending == 0; });
  }
  if (failed.load(std::memory_order_acquire)) return first_error;

  std::vector<SearchResult> results;
  results.reserve(candidates.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (included[i] != 0) results.push_back(std::move(slots[i]));
  }
  const std::vector<std::string> dropped_matchers =
      degradation.dropped_matchers();
  metrics.candidates_skipped->Increment(candidates_skipped);
  metrics.prefilter_rejected->Increment(prefilter_rejected_total);
  metrics.memo_lookups->Increment(memo_lookups_total);
  metrics.memo_fills->Increment(memo_fills_total);

  // Query prep (features, plus the signature when screening) ran once up
  // front on the request thread; account it to phase 2, whose work it
  // replaces.
  phase2_elapsed += prep_seconds;
  if (options.enable_matching) {
    metrics.phase2_seconds->Observe(phase2_elapsed);
    if (trace != nullptr) {
      size_t phase2_id = trace->AddSpan("phase2_match", phase2_elapsed,
                                        root_span.id());
      trace->Annotate(phase2_id, "candidates",
                      static_cast<uint64_t>(candidates_matched));
      if (prefilter_active) {
        trace->Annotate(phase2_id, "prefilter_rejected",
                        static_cast<uint64_t>(prefilter_rejected_total));
      }
      trace->Annotate(phase2_id, "matchers",
                      static_cast<uint64_t>(ensemble_.NumMatchers()));
      std::vector<std::string> names = ensemble_.MatcherNames();
      const std::vector<double> matcher_seconds = degradation.matcher_seconds();
      for (size_t m = 0; m < names.size(); ++m) {
        trace->AddSpan("matcher:" + names[m], matcher_seconds[m], phase2_id);
      }
    }
  }
  if (options.enable_matching && options.enable_tightness) {
    metrics.phase3_seconds->Observe(phase3_elapsed);
    if (trace != nullptr) {
      size_t phase3_id = trace->AddSpan("phase3_tightness", phase3_elapsed,
                                        root_span.id());
      trace->Annotate(phase3_id, "candidates",
                      static_cast<uint64_t>(candidates_scored));
      trace->Annotate(phase3_id, "matched_elements",
                      static_cast<uint64_t>(matched_elements_total));
      trace->Annotate(phase3_id, "total_penalty", tightness_penalty_total);
    }
  }

  // Collaboration boost: fold ratings and usage statistics in before the
  // final sort. Annotations are read live (not from the snapshot): they
  // tune ranking rather than define the corpus, and their accessors are
  // internally synchronized.
  if (options.annotation_boost > 0.0) {
    for (SearchResult& result : results) {
      auto rating = annotations_->GetRatingSummary(result.schema_id);
      auto usage = annotations_->GetUsageCount(result.schema_id);
      double rating_norm = rating.ok() ? rating->average / 5.0 : 0.0;
      double usage_norm =
          usage.ok() ? static_cast<double>(*usage) /
                           (static_cast<double>(*usage) + 10.0)
                     : 0.0;
      result.score *= 1.0 + options.annotation_boost *
                                (0.7 * rating_norm + 0.3 * usage_norm);
    }
  }

  TraceSpan rank_span(trace, "rank");
  const size_t ranked_pool = results.size();
  auto better = [](const SearchResult& a, const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.coarse_score != b.coarse_score) {
      return a.coarse_score > b.coarse_score;
    }
    return a.schema_id < b.schema_id;
  };
  std::sort(results.begin(), results.end(), better);
  if (options.offset > 0) {
    if (options.offset >= results.size()) {
      results.clear();
    } else {
      results.erase(results.begin(),
                    results.begin() + static_cast<long>(options.offset));
    }
  }
  if (results.size() > options.top_k) results.resize(options.top_k);
  metrics.candidates_pruned->Increment(ranked_pool - results.size());
  rank_span.Annotate("returned", static_cast<uint64_t>(results.size()));
  rank_span.Annotate("pruned",
                     static_cast<uint64_t>(ranked_pool - results.size()));
  rank_span.End();

  // One classifier decides "degraded" for the metric, the wire format,
  // and the audit log alike (SearchStats::ComputeDegraded).
  SearchStats classified;
  classified.deadline_hit = deadline_hit.load(std::memory_order_relaxed);
  classified.dropped_matchers = dropped_matchers;
  classified.coarse_only_candidates = coarse_only_candidates;
  classified.candidates_skipped = candidates_skipped;
  classified.prefilter_rejected = prefilter_rejected_total;
  const bool degraded = classified.ComputeDegraded();
  if (degraded) {
    metrics.searches_degraded->Increment();
    for (SearchResult& result : results) result.degraded = true;
    if (trace != nullptr) {
      trace->Annotate(root_span.id(), "degraded", uint64_t{1});
      if (classified.deadline_hit) {
        trace->Annotate(root_span.id(), "deadline_hit", uint64_t{1});
      }
      if (!dropped_matchers.empty()) {
        std::string joined;
        for (const std::string& name : dropped_matchers) {
          if (!joined.empty()) joined += ",";
          joined += name;
        }
        trace->Annotate(root_span.id(), "dropped_matchers", joined);
      }
      if (coarse_only_candidates > 0) {
        trace->Annotate(root_span.id(), "coarse_only_candidates",
                        static_cast<uint64_t>(coarse_only_candidates));
      }
    }
  }
  // Store only full-fidelity answers: a degraded list reflects what a
  // deadline or a benched matcher left behind, not the query's answer.
  if (cache_eligible && !degraded) {
    result_cache_->Put(cache_key, results);
  }

  const double total_elapsed = total_timer.ElapsedSeconds();
  if (options.stats != nullptr) {
    classified.degraded = degraded;
    classified.total_seconds = total_elapsed;
    classified.phase1_seconds = phase1_elapsed;
    classified.phase2_seconds = phase2_elapsed;
    classified.phase3_seconds = phase3_elapsed;
    *options.stats = std::move(classified);
  }

  metrics.total_seconds->Observe(total_elapsed);
  return results;
}

void SearchEngine::EnableResultCache(size_t capacity) {
  result_cache_ = std::make_shared<ResultCache>(capacity);
}

std::shared_ptr<BoundedExecutor> SearchEngine::ScoringPool(
    size_t helpers) const {
  std::lock_guard<std::mutex> lock(scoring_pool_mutex_);
  if (scoring_pool_ == nullptr || scoring_pool_->num_workers() < helpers ||
      scoring_pool_->wedged()) {
    // Regrow by replacement: searches that already grabbed the old pool
    // keep their shared_ptr (its workers drain normally), new searches
    // get the bigger one.
    BoundedExecutor::Options pool_options;
    pool_options.num_workers = helpers;
    pool_options.queue_capacity = std::max<size_t>(16, helpers * 4);
    scoring_pool_ = std::make_shared<BoundedExecutor>(pool_options);
  }
  return scoring_pool_;
}

Result<std::vector<SearchResult>> SearchEngine::SearchKeywords(
    const std::string& keywords, const SearchEngineOptions& options) const {
  SCHEMR_ASSIGN_OR_RETURN(QueryGraph query, ParseQuery(keywords));
  return Search(query, options);
}

}  // namespace schemr
