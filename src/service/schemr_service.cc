#include "service/schemr_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>

#include "core/fingerprint.h"
#include "core/query_parser.h"
#include "core/result_cache.h"
#include "match/codebook.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "parse/xml_parser.h"
#include "service/request_id.h"
#include "util/fault_injection.h"
#include "util/timer.h"
#include "util/xml_writer.h"
#include "viz/graphml_writer.h"
#include "viz/html_report.h"
#include "viz/layout.h"
#include "viz/svg_writer.h"

namespace schemr {

namespace {

/// Request count / error count / latency histogram for one endpoint.
struct EndpointMetrics {
  Counter* requests;
  Counter* errors;
  Histogram* seconds;
};

EndpointMetrics MakeEndpoint(const std::string& endpoint) {
  MetricsRegistry& r = MetricsRegistry::Global();
  const std::string prefix = "schemr_service_" + endpoint;
  return EndpointMetrics{
      r.GetCounter(prefix + "_requests_total",
                   "Requests handled by the " + endpoint + " endpoint."),
      r.GetCounter(prefix + "_errors_total",
                   "Non-OK responses from the " + endpoint + " endpoint."),
      r.GetHistogram(prefix + "_seconds",
                     "Request latency of the " + endpoint + " endpoint."),
  };
}

/// Times one request and tallies its outcome on destruction.
class EndpointScope {
 public:
  explicit EndpointScope(const EndpointMetrics& metrics) : metrics_(metrics) {
    metrics_.requests->Increment();
  }
  ~EndpointScope() {
    if (failed_) metrics_.errors->Increment();
    metrics_.seconds->Observe(timer_.ElapsedSeconds());
  }
  template <typename T>
  const Result<T>& Check(const Result<T>& result) {
    if (!result.ok()) failed_ = true;
    return result;
  }
  const Status& Check(const Status& status) {
    if (!status.ok()) failed_ = true;
    return status;
  }

 private:
  const EndpointMetrics& metrics_;
  Timer timer_;
  bool failed_ = false;
};

SearchEngineOptions WithRequest(const SearchRequest& request,
                                SearchEngineOptions options) {
  options.top_k = request.top_k;
  options.extraction.pool_size = request.candidate_pool;
  if (request.cache_bypass) options.cache_bypass = true;
  if (request.prefilter > 0.0) options.prefilter = request.prefilter;
  return options;
}

/// Writes the children of `parent` as nested <span> elements.
void WriteSpans(XmlWriter* xml, const SearchTrace& trace, size_t parent) {
  for (size_t id : trace.ChildrenOf(parent)) {
    const SpanRecord& span = trace.spans()[id];
    xml->Open("span")
        .Attribute("name", span.name)
        .Attribute("ms", span.seconds * 1e3);
    for (const TraceAnnotation& note : span.annotations) {
      xml->Open("note")
          .Attribute("key", note.key)
          .Attribute("value", note.value)
          .Close();
    }
    WriteSpans(xml, trace, id);
    xml->Close();
  }
}

std::unordered_map<ElementId, double> ScoreMap(
    const std::vector<MatchedElement>& scores) {
  std::unordered_map<ElementId, double> map;
  for (const MatchedElement& m : scores) map[m.element] = m.score;
  return map;
}

/// Serializes a failure as the wire format's error envelope; every
/// HandleSearchXml response is well-formed XML, including refusals.
std::string ErrorXml(const std::string& code, const std::string& message,
                     double retry_after_ms = -1.0) {
  XmlWriter xml;
  xml.Open("error").Attribute("code", code);
  if (retry_after_ms >= 0.0) {
    xml.Attribute("retry_after_ms", retry_after_ms);
  }
  if (!message.empty()) xml.Attribute("message", message);
  xml.Close();
  return xml.Finish();
}

/// Status-code name as an XML-friendly slug ("parse error" ->
/// "parse_error").
std::string StatusCodeSlug(StatusCode code) {
  std::string slug = StatusCodeName(code);
  std::replace(slug.begin(), slug.end(), ' ', '_');
  return slug;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// ShedReason → audit outcome byte; with ShedReasonName this is the whole
/// shed vocabulary, derived from the one enum.
AuditOutcome ShedOutcome(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return AuditOutcome::kShedQueueFull;
    case ShedReason::kDeadline:
      return AuditOutcome::kShedDeadline;
    case ShedReason::kDrain:
    case ShedReason::kNone:
      break;
  }
  return AuditOutcome::kShedDrain;
}

// --- Introspection JSON emitters -----------------------------------------
// A deliberately tiny vocabulary: objects, numbers, strings, booleans —
// exactly what obs/replay.h's ParseBenchJson reads, so `schemr top` and
// the CI smoke check need no real JSON parser.

void JsonKey(std::string* out, const char* key) {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  *out += key;  // keys are identifiers; nothing to escape
  *out += "\":";
}

void JsonNum(std::string* out, const char* key, double value) {
  JsonKey(out, key);
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  *out += buf;
}

void JsonStr(std::string* out, const char* key, std::string_view value) {
  JsonKey(out, key);
  out->push_back('"');
  AppendJsonEscaped(out, value);
  out->push_back('"');
}

void JsonBool(std::string* out, const char* key, bool value) {
  JsonKey(out, key);
  *out += value ? "true" : "false";
}

/// One windowed-view sub-object ("window_1m": {...}) distilled to the
/// handful of series an operator watches.
void AppendWindowJson(std::string* out, const char* key,
                      const WindowedView& view) {
  JsonKey(out, key);
  out->push_back('{');
  JsonNum(out, "seconds", view.window_seconds);
  const WindowedMetric* requests =
      view.Find("schemr_service_search_xml_requests_total");
  JsonNum(out, "qps", requests != nullptr ? requests->rate_per_second : 0.0);
  const WindowedMetric* latency =
      view.Find("schemr_service_search_xml_seconds");
  JsonNum(out, "p50_ms", latency != nullptr ? latency->p50 * 1e3 : 0.0);
  JsonNum(out, "p95_ms", latency != nullptr ? latency->p95 * 1e3 : 0.0);
  JsonNum(out, "p99_ms", latency != nullptr ? latency->p99 * 1e3 : 0.0);
  const WindowedMetric* errors =
      view.Find("schemr_service_search_xml_errors_total");
  JsonNum(out, "errors_per_second",
          errors != nullptr ? errors->rate_per_second : 0.0);
  const WindowedMetric* shed = view.Find("schemr_requests_shed_total");
  JsonNum(out, "shed_per_second",
          shed != nullptr ? shed->rate_per_second : 0.0);
  out->push_back('}');
}

struct ServingMetrics {
  Gauge* inflight;

  static const ServingMetrics& Get() {
    static const ServingMetrics* metrics = [] {
      return new ServingMetrics{
          MetricsRegistry::Global().GetGauge(
              "schemr_requests_inflight",
              "Admitted search requests currently executing or queued."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

SchemrService::~SchemrService() {
  // Best-effort immediate drain; queued requests are cancelled and their
  // waiters (if any are somehow still alive) receive shutting_down.
  if (executor_ != nullptr) (void)executor_->Shutdown(0.0);
}

Status SchemrService::ValidateRequest(const SearchRequest& request) const {
  if (request.top_k == 0) {
    return Status::InvalidArgument("top_k must be at least 1");
  }
  if (request.candidate_pool < request.top_k) {
    return Status::InvalidArgument(
        "candidate_pool (" + std::to_string(request.candidate_pool) +
        ") must be >= top_k (" + std::to_string(request.top_k) + ")");
  }
  if (request.prefilter < 0.0 || request.prefilter >= 1.0) {
    return Status::InvalidArgument(
        "prefilter must be in [0, 1): " + std::to_string(request.prefilter));
  }
  if (request.keywords.size() > limits_.max_keywords_bytes) {
    return Status::InvalidArgument(
        "keywords too large (" + std::to_string(request.keywords.size()) +
        " bytes, limit " + std::to_string(limits_.max_keywords_bytes) + ")");
  }
  if (request.fragment.size() > limits_.max_fragment_bytes) {
    return Status::InvalidArgument(
        "fragment too large (" + std::to_string(request.fragment.size()) +
        " bytes, limit " + std::to_string(limits_.max_fragment_bytes) + ")");
  }
  return Status::OK();
}

Result<std::vector<SearchResult>> SchemrService::Search(
    const SearchRequest& request,
    const SearchEngineOptions& engine_options) const {
  static const EndpointMetrics metrics = MakeEndpoint("search");
  EndpointScope scope(metrics);
  Status valid = ValidateRequest(request);
  if (!scope.Check(valid).ok()) return valid;
  auto parsed = ParseQuery(request.keywords, request.fragment);
  if (!scope.Check(parsed).ok()) return parsed.status();
  std::shared_ptr<AuditLog> log = audit();
  SearchEngineOptions options = WithRequest(request, engine_options);
  SearchStats stats;
  if (log != nullptr && options.stats == nullptr) options.stats = &stats;
  const Timer handle_timer;
  auto results = engine_.Search(*parsed, options);
  scope.Check(results);
  if (log != nullptr) {
    const SearchStats& observed =
        options.stats != nullptr ? *options.stats : stats;
    AuditRecord record;
    record.timestamp_micros = NowMicros();
    record.fingerprint = FingerprintQuery(*parsed);
    record.outcome = !results.ok() ? AuditOutcome::kError
                     : observed.degraded ? AuditOutcome::kDegraded
                                         : AuditOutcome::kOk;
    record.total_micros = static_cast<uint64_t>(handle_timer.ElapsedMicros());
    record.phase1_micros =
        static_cast<uint64_t>(observed.phase1_seconds * 1e6);
    record.phase2_micros =
        static_cast<uint64_t>(observed.phase2_seconds * 1e6);
    record.phase3_micros =
        static_cast<uint64_t>(observed.phase3_seconds * 1e6);
    record.result_digest = results.ok() ? DigestResults(*results) : 0;
    record.result_count =
        results.ok() ? static_cast<uint32_t>(results->size()) : 0;
    record.top_k = static_cast<uint32_t>(request.top_k);
    record.candidate_pool = static_cast<uint32_t>(request.candidate_pool);
    record.coarse_only_candidates =
        static_cast<uint32_t>(observed.coarse_only_candidates);
    record.dropped_matchers =
        static_cast<uint32_t>(observed.dropped_matchers.size());
    record.deadline_hit = observed.deadline_hit;
    record.cache_hit = observed.cache_hit;
    record.keywords = request.keywords;
    record.fragment = request.fragment;
    log->Record(std::move(record));
  }
  return results;
}

Result<std::string> SchemrService::SearchXml(
    const SearchRequest& request,
    const SearchEngineOptions& engine_options) const {
  return SearchXmlInternal(request, engine_options, nullptr, nullptr);
}

Result<std::string> SchemrService::SearchXmlInternal(
    const SearchRequest& request, const SearchEngineOptions& engine_options,
    SearchAuditInfo* audit, SearchTrace* sample_trace) const {
  static const EndpointMetrics metrics = MakeEndpoint("search_xml");
  EndpointScope scope(metrics);
  Status valid = ValidateRequest(request);
  if (!scope.Check(valid).ok()) return valid;
  auto parsed = ParseQuery(request.keywords, request.fragment);
  if (!scope.Check(parsed).ok()) return parsed.status();
  const QueryGraph& query = *parsed;
  if (audit != nullptr) audit->fingerprint = FingerprintQuery(query);

  SearchTrace trace;
  SearchStats stats;
  SearchEngineOptions options = WithRequest(request, engine_options);
  if (request.explain) {
    options.trace = &trace;
  } else if (sample_trace != nullptr) {
    // Tail sampling: the trace is filled exactly like an explain trace
    // but lives and dies service-side, so the response bytes cannot
    // change. (A traced request bypasses the result cache — see
    // search_engine.cc's cache-eligibility rule — which is what makes a
    // sampled trace show the real pipeline, not a cache hit.)
    options.trace = sample_trace;
  }
  options.stats = &stats;
  auto searched = engine_.Search(query, options);
  if (!scope.Check(searched).ok()) return searched.status();
  const std::vector<SearchResult>& results = *searched;
  if (audit != nullptr) {
    audit->filled = true;
    audit->digest = DigestResults(results);
    audit->result_count = static_cast<uint32_t>(results.size());
    audit->stats = stats;
  }

  XmlWriter xml;
  xml.Open("results").Attribute("query", query.ToString());
  xml.Attribute("count", static_cast<long long>(results.size()));
  // Absent on healthy responses so those stay byte-identical.
  if (stats.degraded) xml.Attribute("degraded", "true");
  for (const SearchResult& result : results) {
    xml.Open("result")
        .Attribute("id", static_cast<long long>(result.schema_id))
        .Attribute("name", result.name)
        .Attribute("score", result.score)
        .Attribute("coarse", result.coarse_score)
        .Attribute("tightness", result.tightness)
        .Attribute("matches", static_cast<long long>(result.num_matches))
        .Attribute("entities", static_cast<long long>(result.num_entities))
        .Attribute("attributes",
                   static_cast<long long>(result.num_attributes));
    if (!result.description.empty()) {
      xml.SimpleElement("description", result.description);
    }
    for (const MatchedElement& m : result.matched_elements) {
      xml.Open("element")
          .Attribute("id", static_cast<long long>(m.element))
          .Attribute("score", m.score)
          .Attribute("penalized", m.penalized_score)
          .Close();
    }
    xml.Close();
  }
  if (request.explain) {
    xml.Open("explain");
    if (stats.degraded) {
      xml.Open("degradation")
          .Attribute("deadline_hit", stats.deadline_hit ? "true" : "false")
          .Attribute("coarse_only_candidates",
                     static_cast<long long>(stats.coarse_only_candidates));
      for (const std::string& name : stats.dropped_matchers) {
        xml.Open("dropped_matcher").Attribute("name", name).Close();
      }
      xml.Close();
    }
    WriteSpans(&xml, trace, SearchTrace::kNoParent);
    xml.Close();
  }
  return xml.Finish();
}

Status SchemrService::ValidateRequest(
    const VisualizationRequest& request) const {
  if (request.max_depth > limits_.max_viz_depth) {
    return Status::InvalidArgument(
        "max_depth (" + std::to_string(request.max_depth) +
        ") exceeds the service cap (" +
        std::to_string(limits_.max_viz_depth) + ")");
  }
  if (!request.layout.empty() && request.layout != "tree" &&
      request.layout != "radial") {
    return Status::InvalidArgument("unknown layout '" + request.layout +
                                   "' (expected 'tree' or 'radial')");
  }
  return Status::OK();
}

Result<SchemaGraphView> SchemrService::BuildView(
    const VisualizationRequest& request) const {
  // Validation first: malformed requests are refused before any
  // repository access or layout work.
  SCHEMR_RETURN_IF_ERROR(ValidateRequest(request));
  // Corpus mode resolves the schema through the current snapshot so the
  // drill-in is point-in-time consistent, like Search.
  SCHEMR_ASSIGN_OR_RETURN(
      Schema schema, corpus_ != nullptr
                         ? corpus_->Snapshot()->schemas->Get(request.schema_id)
                         : repository_->Get(request.schema_id));
  GraphViewOptions options;
  options.max_depth = request.max_depth;
  options.root = request.root;
  SchemaGraphView view = BuildGraphView(schema, ScoreMap(request.scores),
                                        options);
  // Codebook annotations ride along on the nodes ("a deeper
  // standardization of data types alongside schema search results").
  for (const AnnotatedElement& note :
       Codebook::Default().AnnotateSchema(schema)) {
    size_t index = view.NodeIndexOf(note.element);
    if (index != SIZE_MAX) {
      view.nodes[index].semantic = SemanticTypeName(note.entry.semantic);
      if (!note.entry.unit.empty()) {
        view.nodes[index].semantic += " [" + note.entry.unit + "]";
      }
    }
  }
  if (request.layout == "radial") {
    ApplyRadialLayout(&view);
  } else if (request.layout == "tree" || request.layout.empty()) {
    ApplyTreeLayout(&view);
  } else {
    return Status::InvalidArgument("unknown layout '" + request.layout +
                                   "' (expected 'tree' or 'radial')");
  }
  return view;
}

Result<std::string> SchemrService::GetSchemaGraphMl(
    const VisualizationRequest& request) const {
  static const EndpointMetrics metrics = MakeEndpoint("graphml");
  EndpointScope scope(metrics);
  auto view = BuildView(request);
  if (!scope.Check(view).ok()) return view.status();
  return WriteGraphMl(*view);
}

Result<std::string> SchemrService::GetSchemaSvg(
    const VisualizationRequest& request) const {
  static const EndpointMetrics metrics = MakeEndpoint("svg");
  EndpointScope scope(metrics);
  auto view = BuildView(request);
  if (!scope.Check(view).ok()) return view.status();
  return WriteSvg(*view);
}

Status SchemrService::StartServing(ServingOptions options) {
  if (corpus_ == nullptr) {
    return Status::InvalidArgument(
        "StartServing requires corpus mode: snapshot isolation is what "
        "makes concurrent serving safe");
  }
  std::lock_guard<std::mutex> lock(serving_mutex_);
  if (shut_down_) {
    return Status::Unavailable("service was shut down; build a new one");
  }
  if (executor_ != nullptr) {
    return Status::InvalidArgument("already serving");
  }
  // The admission controller's queueing-delay model must agree with the
  // executor's actual parallelism.
  options.admission.num_workers = options.executor.num_workers;
  serving_options_ = options;
  if (options.result_cache_capacity > 0) {
    engine_.EnableResultCache(options.result_cache_capacity);
  }
  admission_ = std::make_unique<AdmissionController>(options.admission);
  executor_ = std::make_unique<BoundedExecutor>(options.executor);

  // The telemetry sampler and trace retention always run while serving:
  // windowed views and the retained tail are what make a production
  // incident debuggable after the fact, and their cost is bounded (one
  // registry Collect per interval; one counter bump per request).
  telemetry_ = std::make_unique<TelemetrySampler>(options.telemetry);
  telemetry_->Start();
  traces_ = std::make_unique<TraceRetention>(options.trace_retention);

  if (options.introspection_port >= 0) {
    IntrospectionOptions iopts;
    iopts.port = options.introspection_port;
    introspection_ = std::make_unique<IntrospectionServer>(iopts);
    introspection_->Route("/metrics", [this](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = MetricsText();
      return response;
    });
    introspection_->Route("/healthz", [this](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = HealthzJson(&response.status);
      return response;
    });
    // Liveness and readiness are different questions: /healthz answers
    // "is the process alive and sane", /readyz answers "should a load
    // balancer route here". The fleet coordinator probes /readyz, so a
    // draining replica ("dying") stops receiving traffic while a dead
    // one ("dead") is distinguished by the connect failure itself.
    introspection_->Route("/readyz", [this](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = ReadyzJson(&response.status);
      return response;
    });
    introspection_->Route("/statusz", [this](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = StatuszJson();
      return response;
    });
    introspection_->Route("/tracez", [this](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = TracezJson();
      return response;
    });
    introspection_->Route("/slowz", [this](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = SlowzJson();
      return response;
    });
    Status started = introspection_->Start();
    if (!started.ok()) {
      // No traffic has been admitted yet (we still hold serving_mutex_ and
      // executor_ has never been visible outside it), so a full unwind is
      // safe — the caller can retry StartServing with a different port.
      introspection_.reset();
      telemetry_->Stop();
      telemetry_.reset();
      traces_.reset();
      (void)executor_->Shutdown(0.0);
      executor_.reset();
      admission_.reset();
      return started;
    }
  }

  if (options.search_port >= 0) {
    HttpServerOptions sopts = options.search_http;
    sopts.port = options.search_port;
    search_server_ = std::make_unique<HttpServer>(sopts);
    search_server_->Route("POST", "/search", [this](const HttpRequest& http) {
      return HandleSearchHttp(http);
    });
    Status started = search_server_->Start();
    if (!started.ok()) {
      // Same full-unwind rule as the introspection bind failure above.
      search_server_.reset();
      if (introspection_ != nullptr) {
        introspection_->Stop();
        introspection_.reset();
      }
      telemetry_->Stop();
      telemetry_.reset();
      traces_.reset();
      (void)executor_->Shutdown(0.0);
      executor_.reset();
      admission_.reset();
      return started;
    }
  }
  return Status::OK();
}

bool SchemrService::serving() const {
  std::lock_guard<std::mutex> lock(serving_mutex_);
  return executor_ != nullptr && !shut_down_;
}

Status SchemrService::Shutdown(double deadline_seconds) {
  std::unique_lock<std::mutex> lock(serving_mutex_);
  if (executor_ == nullptr) {
    shut_down_ = true;
    return Status::OK();
  }
  admission_->BeginDrain();
  BoundedExecutor* executor = executor_.get();
  HttpServer* search_server = search_server_.get();
  lock.unlock();
  // The search front end stops accepting first: new connects fail fast
  // while requests already on a socket drain through admission (which now
  // answers shutting_down) and the executor below. BeginDrain joins only
  // the acceptor thread, never a handler, so it is deadlock-free against
  // in-flight searches.
  if (search_server != nullptr) search_server->BeginDrain();
  // Drain outside the lock: in-flight handlers re-enter serving_mutex_
  // briefly and must not deadlock against us. The executor pointer stays
  // valid because executor_ is never reset, only wedged.
  Status drained = executor->Shutdown(deadline_seconds);
  lock.lock();
  shut_down_ = true;
  IntrospectionServer* introspection = introspection_.get();
  TelemetrySampler* telemetry = telemetry_.get();
  lock.unlock();
  // The search front end's handler pool comes down once the executor has
  // drained: any connection still open is writing out a response that
  // already resolved (or a shutting_down error), so the window is short.
  if (search_server != nullptr) search_server->Stop(/*drain_seconds=*/1.0);
  // The introspection plane outlives the drain window (so /healthz can
  // report "draining" to a watching balancer) and comes down only once
  // the drain has resolved. Stopping it joins in-flight handlers, and
  // those handlers take serving_mutex_ themselves (/healthz, /statusz),
  // so the join must happen unlocked — same rule as the executor drain
  // above. The pointers stay valid: introspection_, search_server_, and
  // telemetry_ are never reset once StartServing succeeds, and the
  // Stop()s are safe under concurrent Shutdown calls. The sampler stops
  // after the listeners: a handler mid-flight may still read it.
  if (introspection != nullptr) introspection->Stop();
  if (telemetry != nullptr) telemetry->Stop();
  return drained;
}

Status SchemrService::EnableAudit(const std::string& dir,
                                  AuditLogOptions options) {
  SCHEMR_ASSIGN_OR_RETURN(std::unique_ptr<AuditLog> log,
                          AuditLog::Open(dir, options));
  EnableAudit(std::shared_ptr<AuditLog>(std::move(log)));
  return Status::OK();
}

void SchemrService::EnableAudit(std::shared_ptr<AuditLog> log) {
  std::lock_guard<std::mutex> lock(audit_mutex_);
  audit_ = std::move(log);
}

std::shared_ptr<AuditLog> SchemrService::audit() const {
  std::lock_guard<std::mutex> lock(audit_mutex_);
  return audit_;
}

void SchemrService::RecordRefusal(const SearchRequest& request,
                                  AuditOutcome outcome,
                                  double deadline_seconds) const {
  // A refusal never carried a trace, but it is exactly the kind of
  // outcome the retention rings exist for: offer it metadata-only.
  if (TraceRetention* retention = traces_.get(); retention != nullptr) {
    RetainedTrace retained;
    retained.timestamp_micros = NowMicros();
    retained.fingerprint =
        FingerprintRawRequest(request.keywords, request.fragment);
    retained.outcome = AuditOutcomeName(outcome);
    retained.request_id = request.request_id;
    retention->Retain(std::move(retained));
  }
  std::shared_ptr<AuditLog> log = audit();
  if (log == nullptr) return;
  AuditRecord record;
  record.timestamp_micros = NowMicros();
  // The fragment is not parsed on a refusal (that would defeat shedding);
  // the raw-request fingerprint still aggregates keyword-only queries
  // together with their admitted records.
  record.fingerprint =
      FingerprintRawRequest(request.keywords, request.fragment);
  record.outcome = outcome;
  record.deadline_micros =
      static_cast<uint64_t>(std::max(0.0, deadline_seconds) * 1e6);
  record.top_k = static_cast<uint32_t>(request.top_k);
  record.candidate_pool = static_cast<uint32_t>(request.candidate_pool);
  record.keywords = request.keywords;
  record.fragment = request.fragment;
  record.request_id = request.request_id;
  log->Record(std::move(record));
}

std::string SchemrService::RunSearchToXml(
    const SearchRequest& request, double deadline_seconds,
    double original_deadline_seconds, SearchWireInfo* wire) const {
  const ServingMetrics& serving_metrics = ServingMetrics::Get();
  serving_metrics.inflight->Add(1.0);
  const Timer handle_timer;
  SearchEngineOptions options;
  // Whatever the queue wait left is the pipeline's wall-clock budget; the
  // engine degrades (coarse-only tail) instead of erroring when it fires.
  const double remaining = std::max(deadline_seconds, 1e-3);
  options.deadline_seconds = remaining;
  options.scoring_threads = std::max<size_t>(1, serving_options_.scoring_threads);
  if (remaining < original_deadline_seconds *
                      serving_options_.near_deadline_fraction) {
    // Near-deadline admission: tighten the per-matcher budget so the
    // request finishes degraded within what is left rather than being
    // dropped (the PR-2 degradation ladder).
    options.matcher_budget_seconds =
        remaining * serving_options_.near_deadline_budget_fraction;
  }
  std::shared_ptr<AuditLog> log = audit();
  TraceRetention* retention = traces_.get();
  SearchTrace sample_trace;
  const bool sampled = retention != nullptr && retention->ShouldSample();
  SearchAuditInfo info;
  Result<std::string> xml = SearchXmlInternal(
      request, options,
      log != nullptr || retention != nullptr ? &info : nullptr,
      sampled ? &sample_trace : nullptr);
  serving_metrics.inflight->Add(-1.0);
  const double total_seconds = handle_timer.ElapsedSeconds();
  if (retention != nullptr) {
    RetainedTrace retained;
    retained.timestamp_micros = NowMicros();
    retained.fingerprint =
        info.fingerprint != 0
            ? info.fingerprint
            : FingerprintRawRequest(request.keywords, request.fragment);
    retained.outcome = AuditOutcomeName(!xml.ok() ? AuditOutcome::kError
                                        : info.stats.degraded
                                            ? AuditOutcome::kDegraded
                                            : AuditOutcome::kOk);
    retained.total_seconds = total_seconds;
    retained.cache_hit = info.stats.cache_hit;
    retained.sampled = sampled;
    retained.request_id = request.request_id;
    if (sampled) {
      // Stamp the root span too, so the id survives into explain-style
      // renderings of the sampled trace, not just the retention metadata.
      if (!request.request_id.empty() && !sample_trace.empty()) {
        sample_trace.Annotate(0, "request_id", request.request_id);
      }
      retained.spans = sample_trace.ToString();
    }
    retention->Retain(std::move(retained));
  }
  if (log != nullptr) {
    AuditRecord record;
    record.timestamp_micros = NowMicros();
    record.fingerprint =
        info.fingerprint != 0
            ? info.fingerprint
            : FingerprintRawRequest(request.keywords, request.fragment);
    record.outcome = !xml.ok() ? AuditOutcome::kError
                     : info.stats.degraded ? AuditOutcome::kDegraded
                                           : AuditOutcome::kOk;
    record.total_micros =
        static_cast<uint64_t>(handle_timer.ElapsedMicros());
    record.phase1_micros =
        static_cast<uint64_t>(info.stats.phase1_seconds * 1e6);
    record.phase2_micros =
        static_cast<uint64_t>(info.stats.phase2_seconds * 1e6);
    record.phase3_micros =
        static_cast<uint64_t>(info.stats.phase3_seconds * 1e6);
    record.deadline_micros = static_cast<uint64_t>(remaining * 1e6);
    record.budget_micros =
        static_cast<uint64_t>(options.matcher_budget_seconds * 1e6);
    record.result_digest = info.digest;
    record.result_count = info.result_count;
    record.top_k = static_cast<uint32_t>(request.top_k);
    record.candidate_pool = static_cast<uint32_t>(request.candidate_pool);
    record.coarse_only_candidates =
        static_cast<uint32_t>(info.stats.coarse_only_candidates);
    record.dropped_matchers =
        static_cast<uint32_t>(info.stats.dropped_matchers.size());
    record.deadline_hit = info.stats.deadline_hit;
    record.cache_hit = info.stats.cache_hit;
    record.keywords = request.keywords;
    record.fragment = request.fragment;
    record.request_id = request.request_id;
    log->Record(std::move(record));
  }
  if (xml.ok()) return *std::move(xml);
  std::string slug = StatusCodeSlug(xml.status().code());
  if (wire != nullptr) wire->error_code = slug;
  return ErrorXml(slug, xml.status().message());
}

std::string SchemrService::HandleSearchXml(const SearchRequest& request,
                                           double deadline_seconds,
                                           SearchWireInfo* wire) const {
  BoundedExecutor* executor = nullptr;
  AdmissionController* admission = nullptr;
  {
    std::lock_guard<std::mutex> lock(serving_mutex_);
    if (shut_down_) {
      RecordRefusal(request, AuditOutcome::kShedDrain, deadline_seconds);
      if (wire != nullptr) {
        wire->shed_reason = ShedReason::kDrain;
        wire->error_code = "shutting_down";
      }
      return ErrorXml("shutting_down", "service is shut down");
    }
    executor = executor_.get();
    admission = admission_.get();
  }
  if (executor == nullptr) {
    // Not serving: run inline on the caller's thread, still bounded by
    // the (default) deadline. Single-threaded callers need no pool.
    const double deadline = deadline_seconds > 0.0
                                ? deadline_seconds
                                : AdmissionOptions{}.default_deadline_seconds;
    return RunSearchToXml(request, deadline, deadline, wire);
  }

  AdmissionDecision decision =
      admission->Admit(executor->QueueDepth(), deadline_seconds);
  if (!decision.admit) {
    RecordRefusal(request, ShedOutcome(decision.shed_reason),
                  decision.deadline_seconds);
    if (wire != nullptr) {
      wire->shed_reason = decision.shed_reason;
      wire->retry_after_ms = decision.retry_after_ms;
    }
    if (decision.shed_reason == ShedReason::kDrain) {
      if (wire != nullptr) wire->error_code = "shutting_down";
      return ErrorXml("shutting_down", "service is draining");
    }
    if (wire != nullptr) wire->error_code = "overloaded";
    return ErrorXml("overloaded", "request shed (" + decision.reason + ")",
                    decision.retry_after_ms);
  }

  // Hand the request to a worker and wait for its completion signal. The
  // executor guarantees the task runs exactly once (cancelled=true if the
  // drain deadline expired first), so this wait cannot strand.
  struct Completion {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::string xml;
    SearchWireInfo wire;
  };
  auto state = std::make_shared<Completion>();
  const Timer wait_timer;
  const double deadline = decision.deadline_seconds;
  Status submitted = executor->TrySubmit(
      [this, state, request, wait_timer, deadline](bool cancelled) {
        std::string xml;
        if (cancelled) {
          RecordRefusal(request, AuditOutcome::kCancelled, deadline);
          state->wire.shed_reason = ShedReason::kDrain;
          state->wire.error_code = "shutting_down";
          xml = ErrorXml("shutting_down", "cancelled by shutdown drain");
        } else {
          xml = RunSearchToXml(request,
                               deadline - wait_timer.ElapsedSeconds(),
                               deadline, &state->wire);
        }
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          state->xml = std::move(xml);
          state->done = true;
        }
        state->done_cv.notify_all();
      });
  if (!submitted.ok()) {
    // Lost the race between the admission check and the enqueue (another
    // thread filled the queue, or drain began). Shed rather than block;
    // CountShed keeps schemr_requests_shed_total accounting for every
    // rejection, raced or not.
    if (admission->draining()) {
      admission->CountShed(ShedReason::kDrain);
      RecordRefusal(request, AuditOutcome::kShedDrain,
                    decision.deadline_seconds);
      if (wire != nullptr) {
        wire->shed_reason = ShedReason::kDrain;
        wire->error_code = "shutting_down";
      }
      return ErrorXml("shutting_down", "service is draining");
    }
    admission->CountShed(ShedReason::kQueueFull);
    RecordRefusal(request, AuditOutcome::kShedQueueFull,
                  decision.deadline_seconds);
    if (wire != nullptr) {
      wire->shed_reason = ShedReason::kQueueFull;
      wire->retry_after_ms = admission->options().retry_after_base_ms;
      wire->error_code = "overloaded";
    }
    return ErrorXml("overloaded", submitted.message(),
                    admission->options().retry_after_base_ms);
  }
  FaultInjector::Global().Perturb("service/handoff/wait");
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&state] { return state->done; });
  admission->RecordServiceTime(wait_timer.ElapsedSeconds());
  if (wire != nullptr) *wire = std::move(state->wire);
  return std::move(state->xml);
}

std::string SearchRequestToXml(const SearchRequest& request) {
  XmlWriter xml;
  xml.Open("query").Attribute("keywords", request.keywords);
  xml.Attribute("top_k", static_cast<long long>(request.top_k));
  xml.Attribute("pool", static_cast<long long>(request.candidate_pool));
  if (request.explain) xml.Attribute("explain", "true");
  if (request.cache_bypass) xml.Attribute("cache", "bypass");
  if (request.prefilter > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", request.prefilter);
    xml.Attribute("prefilter", buf);
  }
  if (!request.fragment.empty()) {
    xml.SimpleElement("fragment", request.fragment);
  }
  xml.Close();
  return xml.Finish();
}

Result<SearchRequest> ParseSearchRequestXml(const std::string& xml) {
  auto doc = ParseXml(xml);
  if (!doc.ok()) {
    return Status::InvalidArgument("malformed request XML: " +
                                   doc.status().message());
  }
  const XmlNode* root = doc->root.get();
  if (root == nullptr || root->LocalName() != "query") {
    return Status::InvalidArgument("expected <query> root");
  }
  SearchRequest request;
  if (const std::string* v = root->FindAttribute("keywords")) {
    request.keywords = *v;
  }
  // Strict numeric attributes: a request that cannot say how much work it
  // wants does not get to guess.
  auto parse_size = [](const std::string& text, size_t* out) {
    if (text.empty() || text.size() > 9) return false;
    size_t value = 0;
    for (char c : text) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<size_t>(c - '0');
    }
    *out = value;
    return true;
  };
  if (const std::string* v = root->FindAttribute("top_k")) {
    if (!parse_size(*v, &request.top_k)) {
      return Status::InvalidArgument("non-numeric top_k '" + *v + "'");
    }
  }
  if (const std::string* v = root->FindAttribute("pool")) {
    if (!parse_size(*v, &request.candidate_pool)) {
      return Status::InvalidArgument("non-numeric pool '" + *v + "'");
    }
  }
  if (const std::string* v = root->FindAttribute("explain")) {
    request.explain = *v == "true" || *v == "1";
  }
  if (const std::string* v = root->FindAttribute("cache")) {
    request.cache_bypass = *v == "bypass";
  }
  if (const std::string* v = root->FindAttribute("prefilter")) {
    char* end = nullptr;
    const double threshold = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || !(threshold >= 0.0) ||
        threshold >= 1.0) {
      return Status::InvalidArgument("bad prefilter '" + *v +
                                     "' (want a number in [0, 1))");
    }
    request.prefilter = threshold;
  }
  if (const XmlNode* fragment = root->FirstChild("fragment")) {
    request.fragment = fragment->text;
  }
  if (request.top_k == 0) request.top_k = 10;
  if (request.candidate_pool < request.top_k) {
    request.candidate_pool = request.top_k;
  }
  return request;
}

HttpResponse SchemrService::HandleSearchHttp(const HttpRequest& http) const {
  HttpResponse response;
  response.content_type = "application/xml";
  // Request identity (DESIGN.md §15): honor a well-formed client id,
  // regenerate anything oversized or outside the id alphabet (hostile
  // header bytes are never echoed or recorded), and echo the verdict on
  // every response — including parse failures — so the client can always
  // quote the id this request was recorded under.
  std::string request_id;
  if (const std::string* header = http.FindHeader(kRequestIdHeaderLower);
      header != nullptr && IsValidRequestId(*header)) {
    request_id = *header;
  } else {
    request_id = MintRequestId();
  }
  response.headers.emplace_back(kRequestIdHeader, request_id);
  Result<SearchRequest> parsed = ParseSearchRequestXml(http.body);
  if (!parsed.ok()) {
    response.status = 400;
    response.body = ErrorXml(StatusCodeSlug(parsed.status().code()),
                             parsed.status().message());
    return response;
  }
  parsed->request_id = request_id;
  double deadline_seconds = 0.0;
  if (const std::string* header = http.FindHeader("x-schemr-deadline-ms")) {
    // Client deadline propagation: the header value flows into the
    // admission deadline and from there into the matcher budgets. A
    // non-numeric or non-positive value falls back to the default rather
    // than erroring — a bad hint should not cost the client its answer.
    const double deadline_ms = std::atof(header->c_str());
    if (deadline_ms > 0.0) deadline_seconds = deadline_ms / 1e3;
  }
  SearchWireInfo wire;
  response.body = HandleSearchXml(*parsed, deadline_seconds, &wire);
  if (wire.shed_reason != ShedReason::kNone) {
    // Sheds become 503. Only capacity sheds carry Retry-After — they are
    // the invitation to come back; a draining instance withholds it so a
    // well-behaved client (HttpCall) goes elsewhere instead.
    response.status = 503;
    response.headers.emplace_back("X-Schemr-Shed",
                                  ShedReasonName(wire.shed_reason));
    if (wire.shed_reason != ShedReason::kDrain && wire.retry_after_ms > 0.0) {
      response.retry_after_seconds = wire.retry_after_ms / 1e3;
    }
  } else if (!wire.error_code.empty()) {
    const bool client_fault = wire.error_code == "invalid_argument" ||
                              wire.error_code == "parse_error" ||
                              wire.error_code == "out_of_range";
    response.status = client_fault ? 400 : 500;
  }
  return response;
}

std::string SchemrService::MetricsText() const {
  PublishResultCacheMetrics(engine_.result_cache().get());
  return ToPrometheusText(MetricsRegistry::Global());
}

std::string SchemrService::MetricsJson() const {
  PublishResultCacheMetrics(engine_.result_cache().get());
  return ToJson(MetricsRegistry::Global());
}

std::string SchemrService::StatuszJson() const {
  std::string out = "{";
  JsonStr(&out, "service", "schemr");
  TelemetrySampler* sampler = telemetry_.get();
  JsonNum(&out, "uptime_seconds",
          sampler != nullptr ? sampler->UptimeSeconds() : 0.0);
  JsonBool(&out, "serving", serving());

  JsonKey(&out, "build");
  out.push_back('{');
  JsonStr(&out, "compiler", __VERSION__);
#ifdef NDEBUG
  JsonStr(&out, "mode", "release");
#else
  JsonStr(&out, "mode", "debug");
#endif
  out.push_back('}');

  JsonKey(&out, "corpus");
  out.push_back('{');
  if (corpus_ != nullptr) {
    std::shared_ptr<const CorpusSnapshot> snapshot = corpus_->Snapshot();
    JsonNum(&out, "snapshot_version",
            static_cast<double>(snapshot->version));
    JsonNum(&out, "index_docs",
            static_cast<double>(snapshot->index->NumDocs()));
    JsonNum(&out, "index_terms",
            static_cast<double>(snapshot->index->NumTerms()));
  } else {
    JsonNum(&out, "snapshot_version", 0.0);
    JsonNum(&out, "index_docs", 0.0);
    JsonNum(&out, "index_terms", 0.0);
  }
  out.push_back('}');

  JsonKey(&out, "signatures");
  out.push_back('{');
  {
    MetricsRegistry& registry = MetricsRegistry::Global();
    double catalog_schemas = 0.0;
    double dictionary_terms = 0.0;
    if (corpus_ != nullptr) {
      std::shared_ptr<const CorpusSnapshot> snapshot = corpus_->Snapshot();
      if (snapshot->match_features != nullptr) {
        catalog_schemas =
            static_cast<double>(snapshot->match_features->size());
        dictionary_terms =
            static_cast<double>(snapshot->match_features->terms().size());
      }
    }
    JsonNum(&out, "catalog_schemas", catalog_schemas);
    JsonNum(&out, "dictionary_terms", dictionary_terms);
    JsonNum(&out, "pair_memo_lookups_total",
            static_cast<double>(
                registry.GetCounter("schemr_match_pair_memo_lookups_total")
                    ->Value()));
    JsonNum(&out, "pair_memo_fills_total",
            static_cast<double>(
                registry.GetCounter("schemr_match_pair_memo_fills_total")
                    ->Value()));
    JsonNum(&out, "prefilter_rejected_total",
            static_cast<double>(
                registry.GetCounter("schemr_search_prefilter_rejected_total")
                    ->Value()));
    Histogram* build =
        registry.GetHistogram("schemr_signature_build_seconds");
    JsonNum(&out, "build_count", static_cast<double>(build->Count()));
    JsonNum(&out, "build_seconds_total", build->Sum());
  }
  out.push_back('}');

  JsonKey(&out, "result_cache");
  out.push_back('{');
  std::shared_ptr<ResultCache> cache = engine_.result_cache();
  JsonBool(&out, "enabled", cache != nullptr);
  if (cache != nullptr) {
    const ResultCacheStats stats = cache->Stats();
    const uint64_t lookups = stats.hits + stats.misses;
    JsonNum(&out, "capacity", static_cast<double>(cache->capacity()));
    JsonNum(&out, "entries", static_cast<double>(stats.entries));
    JsonNum(&out, "hits", static_cast<double>(stats.hits));
    JsonNum(&out, "misses", static_cast<double>(stats.misses));
    JsonNum(&out, "insertions", static_cast<double>(stats.insertions));
    JsonNum(&out, "evictions", static_cast<double>(stats.evictions));
    JsonNum(&out, "hit_ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(stats.hits) /
                               static_cast<double>(lookups));
  }
  out.push_back('}');

  JsonKey(&out, "executor");
  out.push_back('{');
  BoundedExecutor* executor = executor_.get();
  if (executor != nullptr) {
    JsonNum(&out, "workers", static_cast<double>(executor->num_workers()));
    JsonNum(&out, "queue_capacity",
            static_cast<double>(executor->queue_capacity()));
    JsonNum(&out, "queue_depth",
            static_cast<double>(executor->QueueDepth()));
    JsonNum(&out, "running", static_cast<double>(executor->NumRunning()));
    JsonBool(&out, "wedged", executor->wedged());
  }
  out.push_back('}');

  JsonKey(&out, "admission");
  out.push_back('{');
  AdmissionController* admission = admission_.get();
  if (admission != nullptr) {
    JsonBool(&out, "draining", admission->draining());
    JsonNum(&out, "predicted_service_ms",
            admission->PredictedServiceSeconds() * 1e3);
  }
  out.push_back('}');

  JsonKey(&out, "http");
  out.push_back('{');
  if (HttpServer* search = search_server_.get(); search != nullptr) {
    const HttpServerStats stats = search->Stats();
    JsonNum(&out, "port", static_cast<double>(search->port()));
    JsonNum(&out, "connections", static_cast<double>(stats.connections));
    JsonNum(&out, "active", static_cast<double>(stats.active));
    JsonNum(&out, "shed", static_cast<double>(stats.shed));
    JsonNum(&out, "timeouts", static_cast<double>(stats.timeouts));
    JsonNum(&out, "bytes_read", static_cast<double>(stats.bytes_read));
    JsonNum(&out, "bytes_written", static_cast<double>(stats.bytes_written));
    JsonBool(&out, "draining", search->draining());
  }
  out.push_back('}');

  JsonKey(&out, "traces");
  out.push_back('{');
  if (TraceRetention* retention = traces_.get(); retention != nullptr) {
    const TraceRetention::Stats stats = retention->GetStats();
    JsonNum(&out, "offered", static_cast<double>(stats.offered));
    JsonNum(&out, "sampled", static_cast<double>(stats.sampled));
    JsonNum(&out, "retained", static_cast<double>(stats.retained));
    JsonNum(&out, "sample_every_n",
            static_cast<double>(retention->options().sample_every_n));
  }
  out.push_back('}');

  if (sampler != nullptr) {
    AppendWindowJson(&out, "window_1m", sampler->Window(60.0));
    AppendWindowJson(&out, "window_5m", sampler->Window(300.0));
    AppendWindowJson(&out, "window_15m", sampler->Window(900.0));
  }
  out += "}\n";
  return out;
}

std::string SchemrService::HealthzJson(int* http_status) const {
  const char* state = "ok";
  int status = 200;
  BoundedExecutor* executor;
  AdmissionController* admission;
  bool down;
  {
    std::lock_guard<std::mutex> lock(serving_mutex_);
    executor = executor_.get();
    admission = admission_.get();
    down = shut_down_;
  }
  std::string out = "{";
  if (executor == nullptr) {
    state = "not_serving";
    status = 503;
  } else if (down) {
    // A completed graceful drain is a planned exit, not a stuck
    // executor; operators filter on "wedged" for the latter.
    state = "shut_down";
    status = 503;
  } else if (executor->wedged()) {
    state = "wedged";
    status = 503;
  } else if (admission->draining()) {
    state = "draining";
    status = 503;
  }
  JsonStr(&out, "status", state);
  bool overloaded = false;
  if (executor != nullptr) {
    const size_t depth = executor->QueueDepth();
    overloaded = depth >= executor->queue_capacity();
    JsonNum(&out, "queue_depth", static_cast<double>(depth));
    JsonNum(&out, "running", static_cast<double>(executor->NumRunning()));
  }
  JsonBool(&out, "overloaded", overloaded);
  out += "}\n";
  if (http_status != nullptr) *http_status = status;
  return out;
}

std::string SchemrService::ReadyzJson(int* http_status) const {
  const char* state = "ready";
  int status = 200;
  BoundedExecutor* executor;
  AdmissionController* admission;
  bool down;
  {
    std::lock_guard<std::mutex> lock(serving_mutex_);
    executor = executor_.get();
    admission = admission_.get();
    down = shut_down_;
  }
  if (executor == nullptr || down || executor->wedged()) {
    // "Dead" from a router's perspective: never started, shut down, or
    // a wedged executor that will not answer. (/healthz still tells the
    // operator WHICH of those it is.)
    state = "not_serving";
    status = 503;
  } else if (admission->draining()) {
    // "Dying": in-flight work finishes, new work must go elsewhere.
    state = "draining";
    status = 503;
  }
  std::string out = "{";
  JsonStr(&out, "status", state);
  out += "}\n";
  if (http_status != nullptr) *http_status = status;
  return out;
}

std::string SchemrService::TracezJson() const {
  TraceRetention* retention = traces_.get();
  if (retention == nullptr) return "{}\n";
  return retention->ToJson();
}

std::string SchemrService::SlowzJson() const {
  std::shared_ptr<AuditLog> log = audit();
  std::vector<AuditRecord> slow;
  if (log != nullptr) slow = log->SlowQueries();
  std::string out = "{";
  JsonNum(&out, "count", static_cast<double>(slow.size()));
  JsonKey(&out, "queries");
  out.push_back('[');
  bool first = true;
  for (const AuditRecord& record : slow) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('{');
    // Full-precision integer, matching /tracez: epoch micros lose
    // ~10s of granularity through %.9g double formatting.
    char timestamp[24];
    std::snprintf(timestamp, sizeof(timestamp), "%llu",
                  static_cast<unsigned long long>(record.timestamp_micros));
    JsonKey(&out, "timestamp_micros");
    out += timestamp;
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(record.fingerprint));
    JsonStr(&out, "fingerprint", fingerprint);
    JsonStr(&out, "outcome", AuditOutcomeName(record.outcome));
    JsonNum(&out, "total_ms", static_cast<double>(record.total_micros) / 1e3);
    JsonNum(&out, "result_count", static_cast<double>(record.result_count));
    JsonBool(&out, "deadline_hit", record.deadline_hit);
    JsonBool(&out, "cache_hit", record.cache_hit);
    if (record.has_query_text) JsonStr(&out, "keywords", record.keywords);
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

Result<std::string> SchemrService::RenderHtmlReport(
    const SearchRequest& request, size_t max_panels,
    const SearchEngineOptions& engine_options) const {
  static const EndpointMetrics metrics = MakeEndpoint("report");
  EndpointScope scope(metrics);
  auto searched = Search(request, engine_options);
  if (!scope.Check(searched).ok()) return searched.status();
  std::vector<SearchResult> results = std::move(searched).value();

  std::vector<ReportRow> rows;
  rows.reserve(results.size());
  for (const SearchResult& r : results) {
    rows.push_back(ReportRow{r.name, r.score, r.num_matches, r.num_entities,
                             r.num_attributes, r.description});
  }

  std::vector<ReportPanel> panels;
  for (size_t i = 0; i < results.size() && i < max_panels; ++i) {
    VisualizationRequest viz;
    viz.schema_id = results[i].schema_id;
    viz.scores = results[i].matched_elements;
    // Alternate layouts across panels, as the GUI offers both.
    viz.layout = (i % 2 == 0) ? "tree" : "radial";
    SCHEMR_ASSIGN_OR_RETURN(std::string svg, GetSchemaSvg(viz));
    panels.push_back(ReportPanel{
        results[i].name + " (" + viz.layout + " view)", std::move(svg)});
  }

  std::string query_desc = "keywords: \"" + request.keywords + "\"";
  if (!request.fragment.empty()) {
    query_desc += "  +  schema fragment (" +
                  std::to_string(request.fragment.size()) + " chars)";
  }
  return WriteHtmlReport("Schemr search results", query_desc, rows, panels);
}

}  // namespace schemr
