// The Schemr server facade (paper Fig. 5).
//
// The GUI sends a search request (keywords + optional DDL/XSD fragment);
// the service runs the three-phase pipeline and returns results "as an XML
// response to the client". Clicking a result triggers a second request
// with the schema ID; the service looks the schema up in the repository
// and returns a GraphML rendering. This module implements both endpoints
// headlessly (strings in, strings out), plus an HTML report that plays the
// role of the two-panel GUI.

#ifndef SCHEMR_SERVICE_SCHEMR_SERVICE_H_
#define SCHEMR_SERVICE_SCHEMR_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "obs/audit_log.h"
#include "obs/telemetry.h"
#include "service/admission.h"
#include "service/http_server.h"
#include "util/executor.h"
#include "viz/graph_view.h"

namespace schemr {

/// A client search request.
struct SearchRequest {
  std::string keywords;
  /// DDL or XSD fragment text; format auto-detected. May be empty.
  std::string fragment;
  size_t top_k = 10;
  size_t candidate_pool = 50;
  /// Explain mode: when true, SearchXml appends an <explain> element with
  /// the per-phase span breakdown (timings, pool sizes, per-matcher
  /// latencies, tightness penalty totals). Default responses are
  /// byte-identical to the non-explain wire format.
  bool explain = false;
  /// Escape hatch (`cache=bypass` on the wire): run the full pipeline even
  /// when the engine's result cache holds this query, and do not store the
  /// outcome. For debugging and cache-vs-pipeline comparisons.
  bool cache_bypass = false;
  /// Signature pre-filter threshold (`prefilter=` on the wire), in
  /// [0, 1). 0 = exact search (the default). When > 0 the request opts
  /// into the approximate signature screen
  /// (SearchEngineOptions::prefilter).
  double prefilter = 0.0;
  /// Fleet-wide request id (DESIGN.md §15). Transport metadata, never
  /// part of the XML wire format: HandleSearchHttp fills it from the
  /// X-Schemr-Request-Id header (validated, or freshly minted) and it
  /// flows into the audit record and retained trace of this request.
  /// Empty for callers below the HTTP layer.
  std::string request_id;
};

/// Request-validation caps. Requests breaching them are rejected with
/// InvalidArgument before any pipeline work runs (a service exposed to
/// clients must bound the work one request can demand).
struct ServiceLimits {
  size_t max_keywords_bytes = 4096;
  size_t max_fragment_bytes = 1 << 20;
  /// Visualization drill-in depth cap: a request asking for a deeper
  /// traversal than this is rejected (depth bounds the rendered graph
  /// and thus the response size).
  size_t max_viz_depth = 64;
};

/// Configuration for StartServing: the worker pool that executes search
/// requests and the admission policy that guards it.
struct ServingOptions {
  BoundedExecutor::Options executor;
  AdmissionOptions admission;
  /// Threads each admitted request may use to score its candidate pool
  /// (SearchEngineOptions::scoring_threads). The engine owns that pool;
  /// it is distinct from `executor` above, which bounds how many requests
  /// run at once. 1 = serial scoring.
  size_t scoring_threads = 1;
  /// When > 0, StartServing installs a snapshot-keyed result cache of this
  /// many entries on the engine (see core/result_cache.h). 0 = no cache.
  size_t result_cache_capacity = 0;
  /// When >= 0, StartServing brings up the HTTP introspection listener on
  /// this loopback port (0 = kernel-assigned ephemeral; read the bound
  /// port from introspection()->port()): an HttpServer with GET routes
  /// that refuses request bodies. Disabled (-1) by default: the
  /// introspection plane is opt-in per process.
  int introspection_port = -1;
  /// When >= 0, StartServing brings up the search serving front end
  /// (POST /search over the hardened HttpServer; DESIGN.md §13) on this
  /// port (0 = ephemeral; read search_server()->port()). Disabled (-1)
  /// by default.
  int search_port = -1;
  /// Socket hardening knobs for the search front end (timeout ladder,
  /// connection cap, input bounds). `search_http.port` is overridden by
  /// `search_port` above.
  HttpServerOptions search_http;
  /// Windowed-telemetry sampler configuration (the sampler itself always
  /// runs while serving; it costs one registry Collect per interval).
  TelemetryOptions telemetry;
  /// Tail-sampled trace retention configuration. `sample_every_n = 0`
  /// disables sampling but still retains interesting outcomes
  /// metadata-only.
  TraceRetentionOptions trace_retention;
};

/// How a search outcome should look on the wire, filled by
/// HandleSearchXml for transports (the HTTP front end) that must map the
/// outcome onto protocol status codes without re-parsing the response
/// XML. The XML body itself is identical with or without this side
/// channel — byte-identical serving is the front end's contract.
struct SearchWireInfo {
  /// Why admission refused the request, kNone when it ran (or failed for
  /// a non-admission reason).
  ShedReason shed_reason = ShedReason::kNone;
  /// The Retry-After hint attached to a shed, milliseconds; 0 when none.
  double retry_after_ms = 0.0;
  /// The <error code="..."> slug when the response is an error, empty on
  /// success ("overloaded", "shutting_down", "invalid_argument", ...).
  std::string error_code;
};

/// Serializes a SearchRequest as the request wire format the search
/// front end accepts over POST /search:
///   <query keywords="..." top_k="10" pool="50" [explain="true"]
///          [cache="bypass"]>[<fragment>...</fragment>]</query>
std::string SearchRequestToXml(const SearchRequest& request);

/// Parses the POST /search request body. InvalidArgument on malformed
/// XML, a non-<query> root, or non-numeric attributes.
Result<SearchRequest> ParseSearchRequestXml(const std::string& xml);

/// A client visualization request ("drill-in").
struct VisualizationRequest {
  SchemaId schema_id = kNoSchema;
  /// Drill-in root (double-clicked node); kNoElement shows the forest.
  ElementId root = kNoElement;
  size_t max_depth = 3;
  /// "tree" or "radial".
  std::string layout = "tree";
  /// Per-element match scores from a previous search response, for color
  /// encoding. May be empty.
  std::vector<MatchedElement> scores;
};

/// Lays out `schema` as the visualization `request` asks for: the
/// drill-in graph view with match-score colors and codebook annotations,
/// under the tree or radial layout. InvalidArgument for an unknown
/// layout. The service's GraphML/SVG endpoints and `schemr viz` both
/// render through this.
Result<SchemaGraphView> BuildVisualization(
    const Schema& schema, const VisualizationRequest& request);

class SchemrService {
 public:
  /// Every request runs against the corpus's current snapshot, so
  /// concurrent searches are safe while the corpus ingests. Required for
  /// StartServing.
  explicit SchemrService(const ServingCorpus* corpus,
                         MatcherEnsemble ensemble = MatcherEnsemble::Default(),
                         ServiceLimits limits = {})
      : corpus_(corpus),
        engine_(corpus, std::move(ensemble)),
        limits_(limits) {}

  /// Every request runs against exactly this snapshot, pinned from a
  /// ServingCorpus with Snapshot(). `repository` answers annotation reads
  /// and must outlive the service.
  SchemrService(const SchemaRepository* repository,
                std::shared_ptr<const CorpusSnapshot> snapshot,
                MatcherEnsemble ensemble = MatcherEnsemble::Default(),
                ServiceLimits limits = {})
      : engine_(std::move(snapshot), std::move(ensemble), repository),
        limits_(limits) {}

  ~SchemrService();

  // --- Concurrent serving (DESIGN.md §9) ---------------------------------

  /// Brings up the bounded worker pool and admission control behind
  /// HandleSearchXml. InvalidArgument without a live corpus (serving is
  /// for one that ingests); FailedPrecondition if already serving or
  /// already shut down.
  Status StartServing(ServingOptions options = {});

  /// The admission-controlled search endpoint. Always returns well-formed
  /// XML: ranked <results> on success, or <error code="..."/> where code
  /// is "overloaded" (shed; carries retry_after_ms), "shutting_down"
  /// (drain began), or the status-code name of a pipeline failure.
  /// `deadline_seconds` <= 0 uses the admission default. Before
  /// StartServing (or after Shutdown completes) requests are not queued:
  /// they run inline on the caller's thread (still deadline-bounded), so
  /// single-threaded callers need no serving setup.
  /// `wire`, when non-null, receives transport-mapping facts about the
  /// outcome (shed reason, retry-after, error slug); the returned XML is
  /// byte-identical either way.
  std::string HandleSearchXml(const SearchRequest& request,
                              double deadline_seconds = 0.0,
                              SearchWireInfo* wire = nullptr) const;

  /// The POST /search endpoint: parses the XML request body, reads the
  /// client deadline from the X-Schemr-Deadline-Ms header (absent or
  /// non-positive = admission default), runs HandleSearchXml, and maps
  /// the outcome onto the HTTP status ladder: 200 with the response XML
  /// (including pipeline <error>s that are the caller's fault — they ran),
  /// 400 for malformed request XML / invalid arguments, 503 with
  /// Retry-After and an X-Schemr-Shed header for sheds and drain, 500
  /// for internal failures. Success bodies are byte-identical to the
  /// in-process HandleSearchXml return for the same request.
  HttpResponse HandleSearchHttp(const HttpRequest& request) const;

  /// Graceful drain: stops admitting (new requests get
  /// <error code="shutting_down"/>), waits up to `deadline_seconds` for
  /// in-flight and queued requests to finish, cancels stragglers (their
  /// waiters receive the shutting_down error), and wedges the serving
  /// path. Idempotent; returns the drain outcome (OK, or Unavailable if
  /// the deadline expired first).
  Status Shutdown(double deadline_seconds);

  /// True between StartServing and Shutdown.
  bool serving() const;

  // --- Query audit log (DESIGN.md §10) -----------------------------------

  /// Opens (creating if needed) an audit log at `dir` and records every
  /// subsequent search request into it: admitted requests and Search()
  /// calls (with phase latencies, fingerprint and result digest), failed
  /// ones included, and shed/cancelled requests from the admission path.
  /// Idempotent per service; call before StartServing.
  Status EnableAudit(const std::string& dir, AuditLogOptions options = {});

  /// Shares an already-open log (several services, or a test, can feed
  /// one log).
  void EnableAudit(std::shared_ptr<AuditLog> log);

  /// The active audit log, or null when auditing is off.
  std::shared_ptr<AuditLog> audit() const;

  /// Runs a search and returns structured results. Records the request,
  /// failed validation and parse included, when auditing is on.
  Result<std::vector<SearchResult>> Search(
      const SearchRequest& request,
      const SearchEngineOptions& engine_options = {}) const;

  /// Runs a search and serializes the ranked list as the XML wire format:
  /// <results query="..."><result id=".." name=".." score=".."
  /// matches=".." entities=".." attributes=".."><description>..
  /// </description><element id=".." score=".."/>...</result></results>
  /// A degraded search (matcher dropped, deadline hit) adds
  /// degraded="true" on <results>, and explain mode a <degradation>
  /// element naming what was given up; non-degraded responses are
  /// byte-identical to the pre-degradation wire format. Records nothing:
  /// this is the reference path served answers are compared against.
  Result<std::string> SearchXml(
      const SearchRequest& request,
      const SearchEngineOptions& engine_options = {}) const;

  /// Resolves a visualization request to a laid-out GraphML document.
  Result<std::string> GetSchemaGraphMl(
      const VisualizationRequest& request) const;

  /// Renders an SVG for a visualization request (used by the HTML report
  /// and the examples).
  Result<std::string> GetSchemaSvg(const VisualizationRequest& request) const;

  /// Full GUI substitute: search, then render the results table plus the
  /// top `max_panels` schemas side by side.
  Result<std::string> RenderHtmlReport(
      const SearchRequest& request, size_t max_panels = 3,
      const SearchEngineOptions& engine_options = {}) const;

  /// Scrape endpoint: the process-wide metrics registry in Prometheus
  /// text exposition format (all schemr_* series — pipeline, index,
  /// store, and per-endpoint service metrics). Refreshes the derived
  /// result-cache gauges first.
  std::string MetricsText() const;

  /// The same registry as a JSON object (dashboards, the CLI).
  std::string MetricsJson() const;

  // --- Introspection plane (DESIGN.md §12) -------------------------------

  /// The /statusz body: one flat JSON object (objects, numbers, strings
  /// and booleans only — no arrays — so obs/replay.h's ParseBenchJson and
  /// `schemr top` can read it) covering uptime, corpus snapshot, result
  /// cache, executor, admission, trace-retention stats, build info, and
  /// 1m/5m/15m windowed qps / latency percentiles / error and shed rates.
  std::string StatuszJson() const;

  /// The /healthz body. `http_status` (may be null) receives 200 when the
  /// process should stay in a load balancer's rotation, 503 when draining
  /// or wedged (or never started serving).
  std::string HealthzJson(int* http_status = nullptr) const;

  /// The /readyz body: readiness as a router sees it, one of
  /// `ready` (200), `draining` (503 — alive, finishing in-flight work,
  /// route elsewhere), or `not_serving` (503 — never started, wedged, or
  /// shut down). Split from /healthz so probes can tell "dying" from
  /// "dead": the fleet coordinator keys routing off this endpoint.
  std::string ReadyzJson(int* http_status = nullptr) const;

  /// The /tracez body: retained traces grouped by category (see
  /// obs/telemetry.h TraceRetention). "{}" until StartServing.
  std::string TracezJson() const;

  /// The /slowz body: the audit log's in-memory slow-query ring, newest
  /// last. Empty ring (or auditing off) yields {"count": 0}.
  std::string SlowzJson() const;

  /// The live introspection listener, or null when not enabled. Valid
  /// between StartServing and destruction.
  const HttpServer* introspection() const {
    return introspection_.get();
  }

  /// The live search front end, or null when not enabled
  /// (ServingOptions::search_port < 0). Valid between StartServing and
  /// destruction.
  const HttpServer* search_server() const { return search_server_.get(); }

  /// The windowed-telemetry sampler, or null before StartServing.
  TelemetrySampler* telemetry() const { return telemetry_.get(); }

  /// The trace-retention rings, or null before StartServing.
  TraceRetention* trace_retention() const { return traces_.get(); }

  const SearchEngine& engine() const { return engine_; }

  /// Installs a result cache on the engine (see core/result_cache.h).
  /// StartServing does this automatically when
  /// ServingOptions::result_cache_capacity > 0; call directly for
  /// non-serving (inline) use. Call before searches run concurrently.
  void EnableResultCache(size_t capacity) {
    engine_.EnableResultCache(capacity);
  }

 private:
  /// One pipeline run, which a request's XML body and its record are
  /// both built from. `query` stays empty when validation or parse failed.
  struct SearchRun {
    QueryGraph query;
    SearchStats stats;
    Result<std::vector<SearchResult>> results = std::vector<SearchResult>{};
  };

  Result<SchemaGraphView> BuildView(const VisualizationRequest& request) const;
  /// InvalidArgument for malformed or over-limit requests; see
  /// ServiceLimits.
  Status ValidateRequest(const SearchRequest& request) const;
  /// InvalidArgument for over-limit depth or unknown layout strings,
  /// checked before any repository access.
  Status ValidateRequest(const VisualizationRequest& request) const;
  /// The one pipeline run behind Search, SearchXml and HandleSearchXml:
  /// validate, parse, apply the request to `options`, run the engine. A
  /// caller's `options.trace` and `options.stats` are filled as well.
  SearchRun RunSearch(const SearchRequest& request,
                      SearchEngineOptions options) const;
  /// RunSearch into `run`, serialized as the XML wire format. A non-null
  /// `sample_trace` is filled like an explain trace but never
  /// serialized, so sampled responses stay byte-identical to unsampled
  /// ones; the request's own explain trace wins over it.
  Result<std::string> SearchXmlInternal(const SearchRequest& request,
                                        SearchEngineOptions options,
                                        SearchTrace* sample_trace,
                                        SearchRun* run) const;
  /// Runs the search under `deadline_seconds` with the near-deadline
  /// degradation ladder applied, records it, and serializes the outcome
  /// (results or <error>) as XML. `wire` (may be null) receives the
  /// error slug on failure.
  std::string RunSearchToXml(const SearchRequest& request,
                             double deadline_seconds,
                             double original_deadline_seconds,
                             SearchWireInfo* wire = nullptr) const;
  /// The one recorder: builds the request's AuditRecord, derives its
  /// RetainedTrace from it when retention is on, and appends it when
  /// auditing is on. A refusal passes no `run`.
  void Record(const SearchRequest& request, AuditOutcome outcome,
              double deadline_seconds, const SearchRun* run = nullptr,
              double total_seconds = 0.0, double budget_seconds = 0.0,
              SearchTrace* sample = nullptr) const;
  /// Records a refusal, fills `wire` and returns the <error> body: the
  /// one path by which HandleSearchXml turns a request away.
  std::string Refuse(const SearchRequest& request, AuditOutcome outcome,
                     ShedReason reason, double deadline_seconds,
                     const std::string& message, double retry_after_ms,
                     SearchWireInfo* wire) const;

  const ServingCorpus* corpus_ = nullptr;  ///< null without a live corpus
  SearchEngine engine_;
  ServiceLimits limits_;

  // Serving state (null until StartServing). The executor owns the
  // worker threads; the admission controller decides who gets one.
  ServingOptions serving_options_;
  std::unique_ptr<BoundedExecutor> executor_;
  std::unique_ptr<AdmissionController> admission_;
  mutable std::mutex serving_mutex_;  ///< guards the two pointers above
  bool shut_down_ = false;            ///< serving ended; do not restart

  mutable std::mutex audit_mutex_;    ///< guards audit_ (set-once, read often)
  std::shared_ptr<AuditLog> audit_;

  // Network planes (set under serving_mutex_ in StartServing, read
  // unguarded afterwards like serving_options_; never reset while the
  // service lives). The two listeners are declared last so their
  // destructors — which join handler threads that read every member
  // above — run first.
  std::unique_ptr<TelemetrySampler> telemetry_;
  std::unique_ptr<TraceRetention> traces_;
  std::unique_ptr<HttpServer> introspection_;
  std::unique_ptr<HttpServer> search_server_;
};

}  // namespace schemr

#endif  // SCHEMR_SERVICE_SCHEMR_SERVICE_H_
