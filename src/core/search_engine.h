// The Schemr search engine: the three-phase algorithm of Fig. 3.
//
//   1. Candidate Extraction -- flatten the query graph, TF/IDF over the
//      document index, keep the top-n pool.
//   2. Schema Matching -- run the matcher ensemble on each candidate,
//      producing total-similarity matrices.
//   3. Tightness-of-fit -- collapse each matrix to a structurally-aware
//      score; rank by it (blended with the normalized coarse score as a
//      stabilizing prior).
//
// Phases 2 and 3 can be disabled individually for the quality-ablation
// experiments (E9 in DESIGN.md).

#ifndef SCHEMR_CORE_SEARCH_ENGINE_H_
#define SCHEMR_CORE_SEARCH_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/candidate_extractor.h"
#include "core/query_graph.h"
#include "core/serving_corpus.h"
#include "core/tightness_of_fit.h"
#include "index/inverted_index.h"
#include "match/ensemble.h"
#include "obs/trace.h"
#include "repo/schema_repository.h"

namespace schemr {

class BoundedExecutor;  // util/executor.h
class ResultCache;      // core/result_cache.h

/// One row of the results table (paper Fig. 2: "name, score, matches,
/// entities, attributes, and description"), plus the per-element scores
/// the visualizer encodes as node colors.
struct SearchResult {
  SchemaId schema_id = kNoSchema;
  std::string name;
  std::string description;
  double score = 0.0;          ///< final ranking score
  double coarse_score = 0.0;   ///< phase-1 TF/IDF score
  double tightness = 0.0;      ///< phase-3 tightness-of-fit
  size_t num_matches = 0;      ///< matched elements
  size_t num_entities = 0;
  size_t num_attributes = 0;
  ElementId best_anchor = kNoElement;
  /// (element, S(e)) for every matched element, for drill-in coloring.
  std::vector<MatchedElement> matched_elements;
  /// True when the search that produced this row degraded (a matcher was
  /// dropped or the deadline forced coarse-only ranking); the scores are
  /// best-effort rather than the full pipeline's.
  bool degraded = false;
};

/// What (if anything) a search had to give up, plus its per-phase wall
/// times; see SearchEngineOptions::stats. A degraded search still returns
/// ranked results -- degradation is never an error.
struct SearchStats {
  bool degraded = false;
  /// The wall-clock deadline fired; candidates not yet matched were
  /// ranked by their phase-1 coarse score only.
  bool deadline_hit = false;
  /// Matchers benched for the remainder of the search (threw, hit their
  /// fault site, or exhausted their cumulative time budget).
  std::vector<std::string> dropped_matchers;
  /// Candidates ranked coarse-only (deadline already hit, or every
  /// matcher benched).
  size_t coarse_only_candidates = 0;
  /// Candidates whose phases 2/3 were skipped by score-bound pruning.
  /// Exact, never degradation: a skipped candidate provably could not
  /// have entered the returned window (DESIGN.md §11).
  size_t candidates_skipped = 0;
  /// Candidates rejected by the signature pre-filter before any matcher
  /// ran (approximate mode only; see SearchEngineOptions::prefilter).
  /// Not degradation: the caller explicitly opted into the screen.
  size_t prefilter_rejected = 0;
  /// Served from the snapshot-keyed result cache; no pipeline phase ran
  /// and the phase times below are zero.
  bool cache_hit = false;
  /// Per-phase wall times for this request (always filled, independent of
  /// explain mode; the audit log and replay engine read them). Under
  /// parallel scoring, phase2/phase3 are the summed per-worker CPU times
  /// (they can exceed total_seconds at high thread counts).
  double total_seconds = 0.0;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double phase3_seconds = 0.0;

  /// THE outcome classifier: the engine's degraded metric, the XML
  /// degraded attribute, and the audit log's outcome byte are all derived
  /// from this one predicate, so they can never disagree.
  bool ComputeDegraded() const {
    return deadline_hit || !dropped_matchers.empty() ||
           coarse_only_candidates > 0;
  }
};

struct SearchEngineOptions {
  /// Phase-1 pool size and TF/IDF knobs.
  CandidateExtractorOptions extraction;
  /// Phase-3 penalties.
  TightnessOptions tightness;
  /// Results returned ("ranked list of n results").
  size_t top_k = 10;
  /// Pagination: skip this many ranked results first ("ask for the next
  /// n schemas" in the GUI). Rank positions offset..offset+top_k-1 are
  /// returned.
  size_t offset = 0;
  /// Blend of normalized coarse score into the final score; the remainder
  /// is the tightness-of-fit. 0 ranks purely structurally.
  double coarse_blend = 0.25;
  /// Ablation switches: with matching off, results are ranked by the
  /// coarse score alone; with tightness off, by the unpenalized mean of
  /// per-element match scores.
  bool enable_matching = true;
  bool enable_tightness = true;
  /// Collaboration signal (paper Applications): when > 0, each result's
  /// score is multiplied by 1 + boost·(0.7·rating/5 + 0.3·usage_sat)
  /// where usage_sat = hits/(hits+10). Community-endorsed schemas rise.
  /// InvalidArgument on an engine built without an annotation repository.
  double annotation_boost = 0.0;
  /// When set, Search records a per-phase span breakdown (explain mode)
  /// into this trace: a root "search" span with phase1_extract /
  /// phase2_match (per-matcher children) / phase3_tightness / rank
  /// children. Null (the default) skips all trace work.
  SearchTrace* trace = nullptr;
  /// Wall-clock budget for the whole search, in seconds (0 = none). When
  /// it expires mid-pool, the remaining candidates are ranked by their
  /// phase-1 coarse score alone and the results are flagged degraded --
  /// the deadline never turns into an error.
  double deadline_seconds = 0.0;
  /// Cumulative per-matcher time budget, in seconds (0 = none). A matcher
  /// whose total wall time across the pool exceeds this is benched for
  /// the remaining candidates (weights renormalize).
  double matcher_budget_seconds = 0.0;
  /// Threads scoring the candidate pool through phases 2/3: the request
  /// thread plus up to scoring_threads-1 workers from the engine-owned
  /// pool (distinct from the service's admission executor). 1 = serial.
  /// The ranked output is bit-identical at any value: every candidate is
  /// scored into a pre-sized slot, so thread count shifts latency only.
  size_t scoring_threads = 1;
  /// Score-bound pruning: skip phases 2/3 for candidates whose best
  /// possible final score cannot beat the running (offset+top_k)-th best
  /// score already observed. Exact -- the returned window never changes
  /// (bound proof in DESIGN.md §11) -- so it defaults on.
  bool enable_pruning = true;
  /// Signature pre-filter threshold in [0, 1]; 0 (the default) disables
  /// the screen and the search is EXACT. When > 0, candidates whose
  /// estimated signature similarity to the query (SimHash + MinHash;
  /// DESIGN.md §16) falls below the threshold are rejected before any
  /// matcher runs -- explicitly approximate: a rejected candidate is out
  /// of the ranking even if the full ensemble would have admitted it.
  /// E20 in EXPERIMENTS.md measures the recall floor per threshold.
  /// Candidates without a catalog entry (scored on features built on the
  /// spot) are never rejected. Joins the result-cache options hash, so
  /// exact and approximate answers never alias. At 0 no signature is
  /// computed and candidates are visited in phase-1 order.
  double prefilter = 0.0;
  /// Escape hatch: skip the result cache for this request, both the
  /// lookup and the store (debugging, cache-vs-pipeline comparisons).
  bool cache_bypass = false;
  /// When set, Search writes what (if anything) it had to give up here.
  SearchStats* stats = nullptr;
};

/// Facade tying the corpus and the match engine together.
///
/// Every search scores one complete CorpusSnapshot -- index, schema view
/// and match-feature catalog -- that a ServingCorpus published, through
/// the same pipeline; the constructors differ only in which snapshot:
///   - a live ServingCorpus: Search acquires the current snapshot up
///     front and runs every phase against it, so concurrent Search calls
///     are safe even while the corpus ingests -- each search sees a
///     consistent pre- or post-commit corpus, never a mix;
///   - a pinned snapshot (ServingCorpus::Snapshot()): every Search runs
///     against that one snapshot.
/// The ensemble is const during Search (matchers are stateless); do not
/// call mutable_ensemble() concurrently with searches.
class SearchEngine {
 public:
  /// Snapshot-isolated searches over a live corpus, whose repository
  /// answers annotation reads.
  explicit SearchEngine(const ServingCorpus* corpus,
                        MatcherEnsemble ensemble = MatcherEnsemble::Default())
      : corpus_(corpus),
        annotations_(corpus->repository()),
        ensemble_(std::move(ensemble)) {}

  /// Every Search runs against this one snapshot, regardless of what the
  /// owning corpus publishes afterwards. The replay engine uses this so a
  /// whole recorded workload executes against a single corpus version
  /// (deterministic digests). A snapshot lacking its index, schema view
  /// or catalog is refused: every Search returns InvalidArgument.
  /// `annotations`, when set, answers annotation reads (it must outlive
  /// the engine); without it, annotation_boost is InvalidArgument.
  explicit SearchEngine(std::shared_ptr<const CorpusSnapshot> snapshot,
                        MatcherEnsemble ensemble = MatcherEnsemble::Default(),
                        const SchemaRepository* annotations = nullptr);

  /// Runs the full pipeline for a query graph.
  Result<std::vector<SearchResult>> Search(
      const QueryGraph& query, const SearchEngineOptions& options = {}) const;

  /// Convenience: keyword-only search.
  Result<std::vector<SearchResult>> SearchKeywords(
      const std::string& keywords,
      const SearchEngineOptions& options = {}) const;

  /// The snapshot the next Search would run against, or the error every
  /// Search returns.
  Result<std::shared_ptr<const CorpusSnapshot>> Snapshot() const;

  const MatcherEnsemble& ensemble() const { return ensemble_; }
  MatcherEnsemble& mutable_ensemble() { return ensemble_; }

  /// Installs a snapshot-keyed LRU over final ranked results (see
  /// core/result_cache.h for keying and invalidation: the snapshot's
  /// version keys implicit invalidation). Like mutable_ensemble, call
  /// before searches run concurrently.
  void EnableResultCache(size_t capacity = 256);

  /// The installed cache, or null. Exposed for stats and tests.
  std::shared_ptr<ResultCache> result_cache() const { return result_cache_; }

 private:
  /// The engine-owned scoring pool, created lazily and regrown (shared_ptr
  /// swap; in-flight searches keep the pool they started with) when a
  /// request asks for more helpers than the current pool holds.
  std::shared_ptr<BoundedExecutor> ScoringPool(size_t helpers) const;

  /// The live corpus when set; otherwise every search runs on pinned_.
  const ServingCorpus* corpus_ = nullptr;
  std::shared_ptr<const CorpusSnapshot> pinned_;
  /// Ratings and usage for annotation_boost; null when none was given.
  const SchemaRepository* annotations_ = nullptr;
  MatcherEnsemble ensemble_;
  mutable std::mutex scoring_pool_mutex_;
  mutable std::shared_ptr<BoundedExecutor> scoring_pool_;
  std::shared_ptr<ResultCache> result_cache_;
};

}  // namespace schemr

#endif  // SCHEMR_CORE_SEARCH_ENGINE_H_
