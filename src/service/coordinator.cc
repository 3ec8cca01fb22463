#include "service/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/exposition.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/request_id.h"
#include "util/fault_injection.h"
#include "util/timer.h"
#include "util/xml_writer.h"

namespace schemr {

namespace {

// Process-wide schemr_coord_* request-path series (pool state gauges
// live in backend_pool.cc).
struct CoordMetrics {
  Counter* requests;
  Counter* failovers;
  Counter* no_backend;

  static const CoordMetrics& Get() {
    static const CoordMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new CoordMetrics{
          r.GetCounter("schemr_coord_requests_total",
                       "Search requests the coordinator accepted."),
          r.GetCounter("schemr_coord_failovers_total",
                       "Requests moved to another backend after a "
                       "connect failure, complete 503, or torn "
                       "exchange."),
          r.GetCounter("schemr_coord_no_backend_total",
                       "Requests shed inline because no routable "
                       "backend remained."),
      };
    }();
    return *metrics;
  }
};

/// Same error envelope HandleSearchXml uses for refusals, so the
/// coordinator's inline sheds speak the wire format clients already
/// parse.
std::string CoordErrorXml(const std::string& code, const std::string& message,
                          double retry_after_ms = -1.0) {
  XmlWriter xml;
  xml.Open("error").Attribute("code", code);
  if (retry_after_ms >= 0.0) xml.Attribute("retry_after_ms", retry_after_ms);
  if (!message.empty()) xml.Attribute("message", message);
  xml.Close();
  return xml.Finish();
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Builds the outbound call for one backend attempt: body and
/// Content-Type pass through, X-Schemr-* request headers are forwarded,
/// the request id is rewritten to the hop-suffixed form (each attempt is
/// individually joinable in replica traces), and the deadline header
/// carries the REMAINING budget, not the original — a failover chain
/// spends one client budget, not N.
HttpCallOptions MakeBackendCall(const HttpRequest& request, double deadline_ms,
                                double elapsed_ms,
                                double attempt_timeout_seconds,
                                const std::string& hop_id) {
  HttpCallOptions call;
  call.method = "POST";
  call.body = request.body;
  if (const std::string* ct = request.FindHeader("content-type")) {
    call.content_type = *ct;
  }
  call.attempt_timeout_seconds = attempt_timeout_seconds;
  for (const auto& [name, value] : request.headers) {
    if (name.rfind("x-schemr-", 0) == 0 && name != "x-schemr-deadline-ms" &&
        name != kRequestIdHeaderLower) {
      call.headers.emplace_back(name, value);
    }
  }
  call.headers.emplace_back(kRequestIdHeader, hop_id);
  if (deadline_ms > 0.0) {
    const double remaining_ms = std::max(deadline_ms - elapsed_ms, 1.0);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", remaining_ms);
    call.headers.emplace_back("X-Schemr-Deadline-Ms", buf);
    // No point waiting on a socket past the client's own patience.
    call.attempt_timeout_seconds =
        std::min(attempt_timeout_seconds, remaining_ms / 1e3 + 0.25);
  }
  return call;
}

}  // namespace

Coordinator::Coordinator(std::vector<BackendConfig> backends,
                         CoordinatorOptions options)
    : options_(options),
      pool_(std::make_unique<BackendPool>(std::move(backends), options.pool)),
      traces_(std::make_unique<TraceRetention>(options.trace_retention)) {}

Coordinator::~Coordinator() { Shutdown(0.5); }

Status Coordinator::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::InvalidArgument("coordinator already started");
  }
  pool_->Start();
  server_ = std::make_unique<HttpServer>(options_.http);
  server_->Route("POST", "/search", [this](const HttpRequest& request) {
    return ForwardSearch(request);
  });
  server_->Route("GET", "/healthz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    std::string out = "{";
    JsonStr(&out, "status",
            shut_down_.load(std::memory_order_acquire) ? "shut_down" : "ok");
    out += "}\n";
    response.body = std::move(out);
    if (shut_down_.load(std::memory_order_acquire)) response.status = 503;
    return response;
  });
  server_->Route("GET", "/readyz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    const size_t routable = pool_->RoutableCount();
    const char* state = "ready";
    if (server_ != nullptr && server_->draining()) {
      state = "draining";
    } else if (routable == 0) {
      state = "not_serving";
    }
    std::string out = "{";
    JsonStr(&out, "status", state);
    JsonNum(&out, "routable_backends", static_cast<double>(routable));
    out += "}\n";
    response.body = std::move(out);
    if (std::string(state) != "ready") response.status = 503;
    return response;
  });
  server_->Route("GET", "/statusz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson();
    return response;
  });
  server_->Route("GET", "/tracez", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = TracezJson();
    return response;
  });
  server_->Route("GET", "/metrics", [this](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = ToPrometheusText(MetricsRegistry::Global());
    // Merge mode (?merge=fleet): append schemr_fleet_* series federated
    // from every ready replica's own /metrics. The coordinator's own
    // families all carry other prefixes, so the combined body stays a
    // valid single exposition.
    if (request.query.find("merge") != std::string::npos) {
      size_t scraped = 0;
      std::vector<MetricsRegistry::MetricSnapshot> fleet =
          RenameForFleet(FleetMergedSnapshots(&scraped));
      MetricsRegistry::MetricSnapshot meta;
      meta.name = "schemr_fleet_replicas_scraped";
      meta.help = "Replicas whose /metrics contributed to this merge.";
      meta.kind = MetricsRegistry::MetricKind::kGauge;
      meta.gauge_value = static_cast<double>(scraped);
      fleet.insert(fleet.begin(), std::move(meta));
      std::sort(fleet.begin(), fleet.end(),
                [](const MetricsRegistry::MetricSnapshot& a,
                   const MetricsRegistry::MetricSnapshot& b) {
                  return a.name < b.name;
                });
      response.body += ToPrometheusText(fleet);
    }
    return response;
  });
  Status started = server_->Start();
  if (!started.ok()) {
    pool_->Stop();
    server_.reset();
    started_.store(false);
    return started;
  }
  return Status::OK();
}

void Coordinator::Shutdown(double drain_seconds) {
  if (!started_.load(std::memory_order_acquire)) return;
  shut_down_.store(true, std::memory_order_release);
  if (server_ != nullptr) {
    server_->BeginDrain();
    server_->Stop(drain_seconds);
  }
  pool_->Stop();
}

int Coordinator::port() const {
  return server_ == nullptr ? 0 : server_->port();
}

bool Coordinator::running() const {
  return server_ != nullptr && server_->running();
}

HttpAttemptResult Coordinator::AttemptBackend(
    int id, const HttpRequest& request, double deadline_ms,
    double elapsed_ms, const std::string& request_id, const char* route,
    std::vector<HopRecord>* journal) {
  HopRecord hop;
  hop.hop = static_cast<int>(journal->size());
  hop.route = route;
  const BackendConfig config = pool_->Config(id);
  hop.backend = config.name;
  const HttpCallOptions call = MakeBackendCall(
      request, deadline_ms, elapsed_ms, options_.attempt_timeout_seconds,
      HopRequestId(request_id, hop.hop));
  const Timer timer;
  HttpAttemptResult result;
  // coord/backend/blackhole: the attempt vanishes without a trace —
  // classified as a torn exchange, exactly what a silently dropped
  // connection to a live-looking backend produces.
  if (FaultInjector::Global().Check("coord/backend/blackhole") != 0) {
    result.kind = HttpAttemptResult::Kind::kBroken;
    result.error = "backend blackholed (injected)";
  } else {
    result = HttpAttempt(config.host, config.search_port, "/search", call);
  }
  hop.latency_ms = timer.ElapsedMillis();

  // Any complete response, whatever its status, proves the backend alive.
  const bool ok = result.kind == HttpAttemptResult::Kind::kOk;
  pool_->ReportOutcome(id, ok);
  if (ok) {
    hop.outcome = "ok:" + std::to_string(result.reply.status);
  } else if (result.kind == HttpAttemptResult::Kind::kConnectFailed) {
    hop.outcome = "connect_failed";
  } else {
    hop.outcome = "broken";
  }
  journal->push_back(std::move(hop));
  return result;
}

HttpResponse Coordinator::PassThrough(const HttpAttemptResult& result) const {
  // Byte-identity: the backend's body is the client's body, no
  // re-serialization. Status, Content-Type, Retry-After, and the
  // X-Schemr-* headers ride along.
  HttpResponse response;
  response.status = result.reply.status;
  response.body = result.reply.body;
  auto ct = result.reply.headers.find("content-type");
  if (ct != result.reply.headers.end()) response.content_type = ct->second;
  auto ra = result.reply.headers.find("retry-after");
  if (ra != result.reply.headers.end()) {
    response.retry_after_seconds = std::atof(ra->second.c_str());
  }
  for (const auto& [name, value] : result.reply.headers) {
    // The replica echoes the hop-suffixed id it was handed; ForwardSearch
    // re-stamps the base id, so drop the per-hop echo here.
    if (name.rfind("x-schemr-", 0) == 0 && name != kRequestIdHeaderLower) {
      response.headers.emplace_back(name, value);
    }
  }
  return response;
}

HttpResponse Coordinator::ShedNoBackend() const {
  // "Every replica is down or draining" is a capacity condition: shed
  // with the existing vocabulary (queue_full carries Retry-After, the
  // invitation to come back) rather than inventing a new wire word.
  HttpResponse response;
  response.status = 503;
  response.content_type = "application/xml";
  response.retry_after_seconds = options_.shed_retry_after_seconds;
  response.headers.emplace_back("X-Schemr-Shed",
                                ShedReasonName(ShedReason::kQueueFull));
  response.body = CoordErrorXml("overloaded", "no healthy backend",
                                options_.shed_retry_after_seconds * 1e3);
  return response;
}

HttpResponse Coordinator::ForwardSearch(const HttpRequest& request) {
  const Timer timer;
  requests_.fetch_add(1, std::memory_order_relaxed);
  CoordMetrics::Get().requests->Increment();

  // Adopt a well-formed client-supplied id or mint one. Client ids are
  // capped below the replica-side limit so the per-hop "-h<N>" suffix
  // still validates downstream.
  std::string request_id;
  if (const std::string* header = request.FindHeader(kRequestIdHeaderLower);
      header != nullptr &&
      IsValidRequestId(*header, kMaxClientRequestIdBytes)) {
    request_id = *header;
  } else {
    request_id = MintRequestId();
  }

  std::vector<HopRecord> journal;
  HttpResponse response =
      ForwardSearchInternal(request, timer, request_id, &journal);

  // The client always sees the BASE id, whichever path answered (the
  // replica's echo carried a hop suffix and was stripped in PassThrough).
  response.headers.emplace_back(kRequestIdHeader, request_id);
  RetainHopJournal(request_id, journal, response.status,
                   timer.ElapsedSeconds());
  return response;
}

HttpResponse Coordinator::ForwardSearchInternal(
    const HttpRequest& request, const Timer& timer,
    const std::string& request_id, std::vector<HopRecord>* journal) {
  double deadline_ms = 0.0;
  if (const std::string* header = request.FindHeader("x-schemr-deadline-ms")) {
    const double parsed = std::atof(header->c_str());
    if (parsed > 0.0) deadline_ms = parsed;
  }

  std::vector<int> tried;
  HttpAttemptResult last_refusal;
  bool have_refusal = false;
  // The failover budget: two more backends after the first pick.
  constexpr int kMaxFailovers = 2;
  const int budget = 1 + kMaxFailovers;
  for (int attempt = 0; attempt < budget; ++attempt) {
    if (deadline_ms > 0.0 && timer.ElapsedMillis() >= deadline_ms) {
      // The client's budget is gone; answering anything else now is
      // wasted work on every layer below.
      HttpResponse response;
      response.status = 503;
      response.content_type = "application/xml";
      response.headers.emplace_back("X-Schemr-Shed",
                                    ShedReasonName(ShedReason::kDeadline));
      response.body = CoordErrorXml(
          "overloaded", "deadline exhausted before a backend answered");
      return response;
    }
    const int id = pool_->Acquire(tried);
    if (id < 0) break;
    tried.push_back(id);
    if (attempt > 0) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      CoordMetrics::Get().failovers->Increment();
    }
    HttpAttemptResult result = AttemptBackend(
        id, request, deadline_ms, timer.ElapsedMillis(), request_id,
        attempt > 0 ? "failover" : "primary", journal);
    pool_->Release(id);
    // A connect failure sent nothing, and a torn exchange only re-runs a
    // read: either way the next routable backend takes the request.
    if (result.kind != HttpAttemptResult::Kind::kOk) continue;
    if (result.reply.status != 503) return PassThrough(result);
    // A complete 503 is a refusal BEFORE execution (shed or draining):
    // failing over is safe, and HttpCall's contract says so. Remember it
    // — if every backend refuses, the client gets a real backend's shed,
    // not a synthetic one.
    last_refusal = std::move(result);
    have_refusal = true;
  }

  if (have_refusal) return PassThrough(last_refusal);
  no_backend_.fetch_add(1, std::memory_order_relaxed);
  CoordMetrics::Get().no_backend->Increment();
  return ShedNoBackend();
}

void Coordinator::RetainHopJournal(const std::string& request_id,
                                   const std::vector<HopRecord>& journal,
                                   int status, double total_seconds) {
  RetainedTrace retained;
  retained.timestamp_micros = NowMicros();
  retained.request_id = request_id;
  retained.total_seconds = total_seconds;
  if (status == 200) {
    retained.outcome = "ok";
  } else if (status == 503) {
    // "shed" prefix keeps the retention classifier's vocabulary: the
    // request was refused upstream (or inline for lack of a backend).
    retained.outcome = "shed_upstream";
  } else {
    retained.outcome = "error";
  }
  // A single-hop 200 is the boring case and tail-samples 1-in-N; any
  // request that failed over or ended non-200 is always kept.
  retained.sampled =
      journal.size() > 1 || status != 200 || traces_->ShouldSample();
  char line[160];
  std::snprintf(line, sizeof(line), "forward status=%d hops=%zu %.3fms",
                status, journal.size(), total_seconds * 1e3);
  retained.spans = line;
  for (const HopRecord& hop : journal) {
    std::snprintf(line, sizeof(line), "\n  h%d %s %s %.3fms %s", hop.hop,
                  hop.backend.c_str(), hop.route, hop.latency_ms,
                  hop.outcome.c_str());
    retained.spans += line;
  }
  traces_->Retain(std::move(retained));
}

std::string Coordinator::TracezJson() const { return traces_->ToJson(); }

std::vector<MetricsRegistry::MetricSnapshot> Coordinator::FleetMergedSnapshots(
    size_t* scraped) const {
  std::vector<std::vector<MetricsRegistry::MetricSnapshot>> scrapes;
  for (const BackendSnapshot& backend : pool_->Snapshot()) {
    if (!backend.ready || backend.introspection_port <= 0) continue;
    // A replica that dies between the readiness probe and this scrape, or
    // cannot answer within the per-replica budget, is skipped —
    // federation degrades to the replicas that answered.
    constexpr double kScrapeTimeoutSeconds = 1.0;
    Result<std::string> body =
        HttpGet(backend.host, backend.introspection_port, "/metrics",
                kScrapeTimeoutSeconds);
    if (!body.ok()) continue;
    Result<std::vector<MetricsRegistry::MetricSnapshot>> parsed =
        ParsePrometheusSnapshots(*body);
    if (!parsed.ok()) continue;
    scrapes.push_back(std::move(*parsed));
  }
  if (scraped != nullptr) *scraped = scrapes.size();
  return MergeMetricSnapshots(scrapes);
}

std::string Coordinator::StatuszJson() const {
  std::string out = "{";
  JsonStr(&out, "service", "schemr-coordinator");
  // `serving` and `uptime_seconds` keep `schemr top` (and anything else
  // reading replica /statusz) working unchanged against a coordinator.
  JsonNum(&out, "serving", started_.load(std::memory_order_relaxed) &&
                                   !shut_down_.load(std::memory_order_relaxed)
                               ? 1.0
                               : 0.0);
  JsonNum(&out, "uptime_seconds", uptime_.ElapsedSeconds());
  JsonNum(&out, "coord.requests",
          static_cast<double>(requests_.load(std::memory_order_relaxed)));
  JsonNum(&out, "coord.failovers",
          static_cast<double>(failovers_.load(std::memory_order_relaxed)));
  JsonNum(&out, "coord.no_backend",
          static_cast<double>(no_backend_.load(std::memory_order_relaxed)));
  // Hop-journal retention, under the same keys a replica's /statusz
  // uses so `schemr top`'s traces row works against either.
  if (traces_ != nullptr) {
    const TraceRetention::Stats trace_stats = traces_->GetStats();
    JsonNum(&out, "traces.offered", static_cast<double>(trace_stats.offered));
    JsonNum(&out, "traces.sampled", static_cast<double>(trace_stats.sampled));
    JsonNum(&out, "traces.retained",
            static_cast<double>(trace_stats.retained));
    JsonNum(&out, "traces.sample_every_n",
            static_cast<double>(options_.trace_retention.sample_every_n));
  }
  // fleet.* aggregates: merged live from ready replicas' /metrics, so the
  // percentiles are bucket-exact over the whole fleet, not averages of
  // per-replica quantiles.
  size_t scraped = 0;
  const std::vector<MetricsRegistry::MetricSnapshot> fleet =
      FleetMergedSnapshots(&scraped);
  JsonNum(&out, "fleet.replicas_scraped", static_cast<double>(scraped));
  for (const MetricsRegistry::MetricSnapshot& m : fleet) {
    if (m.name == "schemr_service_search_xml_requests_total") {
      JsonNum(&out, "fleet.requests", static_cast<double>(m.counter_value));
    } else if (m.name == "schemr_service_search_xml_seconds") {
      const double uptime = uptime_.ElapsedSeconds();
      JsonNum(&out, "fleet.search_count",
              static_cast<double>(m.histogram.count));
      JsonNum(&out, "fleet.qps",
              uptime > 0.0 ? static_cast<double>(m.histogram.count) / uptime
                           : 0.0);
      JsonNum(&out, "fleet.p50_ms", m.histogram.Quantile(0.5) * 1e3);
      JsonNum(&out, "fleet.p95_ms", m.histogram.Quantile(0.95) * 1e3);
      JsonNum(&out, "fleet.p99_ms", m.histogram.Quantile(0.99) * 1e3);
    }
  }
  if (server_ != nullptr) {
    const HttpServerStats stats = server_->Stats();
    JsonNum(&out, "http.connections", static_cast<double>(stats.connections));
    JsonNum(&out, "http.active", static_cast<double>(stats.active));
    JsonNum(&out, "http.shed", static_cast<double>(stats.shed));
    JsonNum(&out, "http.timeouts", static_cast<double>(stats.timeouts));
  }
  pool_->AppendStatsJson(&out);
  out += "}\n";
  return out;
}

}  // namespace schemr
