// Fault-tolerant serving tier over a replica fleet (DESIGN.md §14).
//
// A Coordinator fronts N independent `schemr serve` processes behind one
// HttpServer and exposes the same byte-identical POST /search: whatever
// bytes the chosen backend answered are what the client receives —
// status, body, Content-Type, Retry-After, and X-Schemr-* headers pass
// through untouched. On top of the BackendPool's health view it adds the
// forwarding policy:
//
//   * Deadline propagation: the client's X-Schemr-Deadline-Ms arrives
//     with some of its budget already spent here; each hop forwards the
//     REMAINING budget (original minus elapsed), so a failover chain
//     cannot overspend what the client granted.
//   * One attempt at a time: each backend attempt is one synchronous
//     HttpAttempt on the handler thread. The next backend is tried only
//     once the previous attempt has ended.
//   * Failover: a connect failure (nothing was sent) or a complete 503
//     (the backend refused before executing — shed or draining) moves
//     the request to the next routable backend, excluding every backend
//     already tried. The response the client sees is always one
//     backend's complete answer; the coordinator never splices or
//     streams a partial body ("never mid-body").
//   * Torn exchanges: /search is a read-only RPC, so a response that
//     dies mid-exchange (backend killed or stalled while answering) is
//     ALSO failed over — re-executing a search is safe, unlike the
//     general case HttpCall's narrow retry contract protects. /search is
//     the only route the coordinator forwards.
//   * No healthy backend: an inline 503 + Retry-After carrying
//     `X-Schemr-Shed: queue_full` — the existing capacity-shed
//     vocabulary, because "every replica is down or draining" is a
//     capacity condition the client should back off from and retry.
//
// The coordinator serves its own introspection on the same listener:
// GET /healthz (liveness), /readyz (ready iff ≥1 routable backend),
// /statusz (flat JSON: coord.* plus per-backend keys), /metrics.

#ifndef SCHEMR_SERVICE_COORDINATOR_H_
#define SCHEMR_SERVICE_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/backend_pool.h"
#include "service/http_server.h"
#include "util/status.h"
#include "util/timer.h"

namespace schemr {

struct CoordinatorOptions {
  /// Listener configuration (port 0 = ephemeral; read port() after
  /// Start). Handler threads bound the coordinator's own concurrency.
  HttpServerOptions http;
  BackendPoolOptions pool;
  /// Per-attempt wall-clock budget against a backend (further clamped
  /// by the request's remaining deadline when one is set).
  double attempt_timeout_seconds = 5.0;
  /// Retry-After on inline "no healthy backend" sheds, seconds.
  double shed_retry_after_seconds = 1.0;
  /// Tail-sampled retention for per-request hop journals (coordinator
  /// /tracez; DESIGN.md §15). Multi-hop and non-200 requests are always
  /// retained; healthy single-hop requests sample 1-in-N.
  TraceRetentionOptions trace_retention;
};

class Coordinator {
 public:
  Coordinator(std::vector<BackendConfig> backends,
              CoordinatorOptions options = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Starts the pool's probe thread and the HTTP listener.
  Status Start();

  /// Drains the listener, then stops the probe thread. Idempotent.
  void Shutdown(double drain_seconds = 2.0);

  int port() const;
  bool running() const;

  BackendPool& pool() { return *pool_; }
  const BackendPool& pool() const { return *pool_; }
  HttpServer* server() { return server_.get(); }

  /// Flat JSON (ParseBenchJson/checkjson-compatible): coord.* counters,
  /// fleet.* aggregates merged from ready replicas' /metrics, plus the
  /// pool's per-backend keys.
  std::string StatuszJson() const;

  /// The coordinator /tracez body: retained per-request hop journals
  /// (one line per backend attempt), joinable to replica traces by
  /// request id.
  std::string TracezJson() const;

  /// Scrapes every ready replica's /metrics and returns the bucket-wise
  /// merged snapshot list (original names — the /metrics merge mode
  /// renames to schemr_fleet_* on top). `scraped` (may be null) receives
  /// how many replicas contributed; dead or unparseable replicas are
  /// skipped without poisoning the merge.
  std::vector<MetricsRegistry::MetricSnapshot> FleetMergedSnapshots(
      size_t* scraped) const;

  /// Forwarding core, exposed for in-process tests: answers one /search
  /// request exactly as the HTTP handler would.
  HttpResponse ForwardSearch(const HttpRequest& request);

  /// The hop-journal retention rings (never null).
  TraceRetention* trace_retention() { return traces_.get(); }

 private:
  /// One backend attempt in a request's journal: which backend, why it
  /// was chosen, how long the hop took, how it ended.
  struct HopRecord {
    int hop = 0;              ///< hop index; suffixes the forwarded id
    std::string backend;      ///< replica name ("replica1")
    const char* route = "primary";  ///< "primary" | "failover"
    double latency_ms = 0.0;
    std::string outcome;      ///< "ok:<status>", "connect_failed", "broken"
  };

  /// One attempt against backend `id`. Its hop number is the journal's
  /// length, so hops count across the whole request; the attempt forwards
  /// `request_id` suffixed with it, reports the outcome to the pool and
  /// appends the hop to `journal`.
  HttpAttemptResult AttemptBackend(int id, const HttpRequest& request,
                                   double deadline_ms, double elapsed_ms,
                                   const std::string& request_id,
                                   const char* route,
                                   std::vector<HopRecord>* journal);
  /// The failover loop; ForwardSearch wraps it with request-id minting,
  /// the echoed header, and journal retention.
  HttpResponse ForwardSearchInternal(const HttpRequest& request,
                                     const Timer& timer,
                                     const std::string& request_id,
                                     std::vector<HopRecord>* journal);
  void RetainHopJournal(const std::string& request_id,
                        const std::vector<HopRecord>& journal, int status,
                        double total_seconds);
  HttpResponse PassThrough(const HttpAttemptResult& result) const;
  HttpResponse ShedNoBackend() const;

  const CoordinatorOptions options_;
  std::unique_ptr<BackendPool> pool_;
  std::unique_ptr<TraceRetention> traces_;
  std::unique_ptr<HttpServer> server_;
  std::atomic<bool> started_{false};
  Timer uptime_;
  std::atomic<bool> shut_down_{false};

  // Coordinator-level counters mirrored into schemr_coord_* metrics;
  // kept per-instance too so /statusz is cheap and self-contained.
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> no_backend_{0};
};

}  // namespace schemr

#endif  // SCHEMR_SERVICE_COORDINATOR_H_
