// Shared, hardened HTTP/1.1 server (DESIGN.md §13).
//
// PR 6's introspection listener proved the shape — a dedicated acceptor
// thread feeding a BoundedExecutor handler pool, inline 503 shedding, one
// request per connection — but it only ever faced cooperative loopback
// scrapers. This module promotes that plumbing into a front end fit for
// misbehaving clients, because the search plane now serves over it:
//
//   * Timeout ladder: separate header, body, and write deadlines per
//     connection (slowloris defense). A peer that stalls past a deadline
//     gets 408 and the socket back.
//   * Bounded input: the request head is capped (431 beyond it) and the
//     body is capped (413), with Content-Length validated strictly —
//     non-numeric, signed, duplicated-and-disagreeing, or overflowing
//     values are refused before a single body byte is read.
//   * Hard connection cap: accepted sockets beyond `max_connections` are
//     answered 503 with Retry-After inline on the acceptor thread, the
//     same shape the admission layer uses for search sheds.
//   * Robust acceptor: transient accept() failures (EINTR, ECONNABORTED,
//     EMFILE/ENFILE, ENOBUFS) back off briefly and retry instead of
//     looping hot or killing the listener; accepted sockets are
//     FD_CLOEXEC so serving never leaks fds into forked children.
//   * Fault injection: every socket op threads through the net/* fault
//     sites (util/fault_injection.h), so the chaos harness can reset,
//     truncate, and stall real connections under sanitizers.
//   * Graceful drain: BeginDrain() refuses new connections (the listener
//     closes, so clients see a clean connect failure they may retry
//     elsewhere) while in-flight responses finish; Stop() then joins the
//     handler pool under a deadline.
//
// Still deliberately NOT a general web server: no keep-alive, no chunked
// encoding, no TLS; one exact-match-routed request per connection,
// GET/POST only. Anything fancier belongs in a reverse proxy.
//
// Thread safety: Route before Start; Start/BeginDrain/Stop may race with
// each other and are idempotent; handlers run concurrently on the pool
// and must be thread-safe themselves.

#ifndef SCHEMR_SERVICE_HTTP_SERVER_H_
#define SCHEMR_SERVICE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/executor.h"
#include "util/status.h"

namespace schemr {

/// One parsed request.
struct HttpRequest {
  std::string method;  ///< "GET" or "POST"
  std::string path;    ///< "/search" (query string stripped)
  std::string query;   ///< "window=60" (without the '?'; may be empty)
  /// Header fields, names lowercased, values trimmed of surrounding
  /// whitespace. Later duplicates overwrite earlier ones, except
  /// Content-Length, where a disagreeing duplicate is a 400.
  std::map<std::string, std::string> headers;
  std::string body;  ///< exactly Content-Length bytes (empty without one)

  /// Header value by lowercase name, or nullptr.
  const std::string* FindHeader(const std::string& name) const {
    auto it = headers.find(name);
    return it == headers.end() ? nullptr : &it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// When >= 0, emitted as a Retry-After header (whole seconds).
  double retry_after_seconds = -1.0;
  /// Extra response headers, emitted verbatim (name, value).
  std::vector<std::pair<std::string, std::string>> headers;
};

struct HttpServerOptions {
  /// Port to bind (0 = kernel-assigned ephemeral; read port() after
  /// Start).
  int port = 0;
  /// Loopback by default; a search front end fronting real clients binds
  /// wider explicitly.
  std::string bind_address = "127.0.0.1";
  /// Handler pool size: connections served concurrently.
  size_t handler_threads = 2;
  /// Hard cap on accepted connections alive at once (queued + in
  /// handlers). Beyond it the acceptor sheds inline with 503 Retry-After.
  size_t max_connections = 128;
  /// Request head larger than this is answered 431.
  size_t max_request_bytes = 8192;
  /// Declared (or implied) body larger than this is answered 413.
  size_t max_body_bytes = 1 << 20;
  /// The complete request head must arrive within this (slowloris
  /// defense); a stall past it is answered 408.
  double header_timeout_seconds = 5.0;
  /// The complete body must arrive within this after the head; 408 on
  /// stall.
  double body_timeout_seconds = 10.0;
  /// Per-send socket timeout while writing the response.
  double write_timeout_seconds = 5.0;
  /// Retry-After value on inline acceptor sheds, in seconds.
  double shed_retry_after_seconds = 1.0;
};

// --- pure request-head parsing (fuzzable without sockets) -------------------

/// Outcome of parsing a (possibly incomplete) request head.
enum class HttpParseOutcome {
  kComplete,        ///< head parsed; request line + headers valid
  kNeedMore,        ///< no head terminator yet; read more bytes
  kBadRequest,      ///< 400: malformed request line, header, or length
  kHeadTooLarge,    ///< 431: no terminator within the head cap
  kBodyTooLarge,    ///< 413: Content-Length beyond the body cap
  kUnsupported,     ///< 501: Transfer-Encoding (chunked) requested
};

struct ParsedRequestHead {
  HttpRequest request;    ///< filled on kComplete (body NOT read here)
  size_t head_bytes = 0;  ///< bytes consumed through the terminator
  /// Declared body length; a request without Content-Length has a
  /// zero-length body (no Transfer-Encoding support).
  uint64_t content_length = 0;
};

/// Parses the request head at the front of `data`. Never reads past
/// `data.size()`, never throws; `max_head_bytes`/`max_body_bytes` bound
/// what it will accept. Exposed so the property tests can feed it
/// truncated, flipped, pipelined, and oversized inputs directly.
HttpParseOutcome ParseRequestHead(std::string_view data,
                                  size_t max_head_bytes,
                                  size_t max_body_bytes,
                                  ParsedRequestHead* out);

/// The HTTP status a non-kComplete outcome maps to (400/431/413/501;
/// stalls become 408 in the socket layer, not here). kNeedMore maps to
/// 0 (keep reading).
int HttpStatusForOutcome(HttpParseOutcome outcome);

// --- pure response-head parsing (fuzzable without sockets) ------------------

/// Outcome of parsing a (possibly incomplete) response head. The client
/// treats kMalformed as a mid-exchange failure — never retried, because
/// the server may have executed the request before garbling its answer.
enum class HttpResponseOutcome {
  kComplete,   ///< status line + headers parsed
  kNeedMore,   ///< no head terminator within the data yet
  kMalformed,  ///< bad status line, status code, or header field
};

struct ParsedResponseHead {
  int status = 0;  ///< 100..599 on kComplete
  /// Header fields, names lowercased, values trimmed. Later duplicates
  /// overwrite earlier ones (a duplicate Retry-After last-wins and is
  /// still clamped by HttpCall's 5 s retry-after cap), except
  /// Content-Length, where a disagreeing duplicate is kMalformed — the
  /// same smuggling defense the request parser applies.
  std::map<std::string, std::string> headers;
  size_t head_bytes = 0;  ///< bytes consumed through the terminator
};

/// Parses the response head at the front of `data`: status line
/// (`HTTP/x.y NNN reason`, status strictly three digits in 100..599, the
/// reason phrase free-form but bounded by the head cap) followed by
/// header fields. Never reads past `data.size()`, never throws. This
/// parser sits on the coordinator's failover hot path, so it is exposed
/// for the same seeded property fuzz ParseRequestHead gets — truncated
/// status lines, oversized reason phrases, and duplicate Retry-After
/// included.
HttpResponseOutcome ParseResponseHead(std::string_view data,
                                      size_t max_head_bytes,
                                      ParsedResponseHead* out);

// --- the server -------------------------------------------------------------

/// Point-in-time counters for one server instance (process-wide series
/// with the same names live in the metrics registry as schemr_http_*).
struct HttpServerStats {
  uint64_t connections = 0;  ///< accepted sockets, lifetime
  uint64_t shed = 0;         ///< inline 503s (connection cap or pool full)
  uint64_t timeouts = 0;     ///< 408s (header or body stall)
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t active = 0;       ///< accepted sockets currently alive
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers an exact-match route for one method ("GET", "/statusz").
  /// A path registered under a different method answers 405; an unknown
  /// path 404. Call before Start.
  void Route(std::string method, std::string path, Handler handler);

  /// Binds, listens, and starts the acceptor thread and handler pool.
  /// IOError when the address cannot be bound; InvalidArgument when
  /// already started.
  Status Start();

  /// Graceful-drain entry: stops accepting and closes the listener (new
  /// connects fail cleanly) while in-flight handlers keep running.
  /// Idempotent; safe to race with Stop.
  void BeginDrain();

  /// BeginDrain, then gives in-flight handlers up to `drain_seconds` to
  /// finish before cancelling stragglers (their connections close without
  /// a response). Idempotent.
  void Stop(double drain_seconds = 1.0);

  /// The actually bound port (resolves port 0), or 0 before Start.
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  HttpServerStats Stats() const;

  const HttpServerOptions& options() const { return options_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Formats and writes one response; returns false when the connection
  /// died mid-write (the server never retries a response).
  bool WriteResponse(int fd, const HttpResponse& response);
  /// `lingering` half-closes and drains unread input first, so a
  /// just-written response (e.g. an early 503/413 while the peer is
  /// still sending) survives instead of being discarded by an RST.
  void CloseConnection(int fd, bool lingering = false);

  const HttpServerOptions options_;
  /// path → (method → handler); two-level so 405 and 404 stay distinct.
  std::map<std::string, std::map<std::string, Handler>> routes_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::mutex lifecycle_mutex_;  ///< serializes Start/BeginDrain/Stop
  std::thread acceptor_;
  std::unique_ptr<BoundedExecutor> handlers_;

  // Per-instance stats (also mirrored into the global schemr_http_*
  // metrics).
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> active_{0};
};

// --- client -----------------------------------------------------------------

/// One HTTP exchange's result, whatever the status code.
struct HttpReply {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lowercased names
  std::string body;
  int attempts = 1;  ///< how many attempts HttpCall spent (retries + 1)
};

/// Retry/backoff policy for HttpCall. The retry contract is deliberately
/// narrow: an attempt is retried ONLY when it is provably safe —
/// (a) connect() itself failed, so no request bytes ever left, or
/// (b) the server answered a complete 503 carrying Retry-After, an
/// explicit "come back later". Mid-exchange failures (send/recv errors,
/// truncated responses) are NEVER retried: the server may have executed
/// the request, and a search front end must not double-execute on
/// ambiguity. Backoff is capped exponential with deterministic jitter
/// (seeded, so tests and the load generator replay identical schedules).
struct HttpCallOptions {
  std::string method = "GET";
  std::string body;
  std::string content_type = "application/xml";
  /// Extra request headers (name, value), emitted verbatim.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Wall-clock budget per attempt (connect + send + receive).
  double attempt_timeout_seconds = 5.0;
  /// Total attempts (1 = never retry).
  int max_attempts = 1;
  /// Backoff before retry k (1-based): min(base * 2^(k-1), 2 s), scaled
  /// by a deterministic jitter in [0.5, 1.0].
  double backoff_base_ms = 50.0;
  /// Seed for the jitter stream (same seed → same backoff schedule).
  uint64_t jitter_seed = 1;
};

/// One HTTP exchange's outcome, classified for the retry/failover
/// decision. kConnectFailed is the only "nothing was sent" class; kOk is
/// any complete response (the caller branches on status); kBroken is a
/// mid-exchange failure — ambiguous, because the server may have
/// executed the request.
struct HttpAttemptResult {
  enum class Kind {
    kOk,             ///< complete response parsed (any status)
    kConnectFailed,  ///< connect() failed: nothing was sent, safe to retry
    kBroken,         ///< failed mid-exchange: ambiguous, never retried here
  };
  Kind kind = Kind::kBroken;
  HttpReply reply;
  std::string error;
};

/// Performs exactly one HTTP/1.1 exchange (Connection: close), no
/// retries, no backoff. This is the coordinator's building block: it
/// decides failover itself from the returned Kind. Counts into
/// schemr_client_attempts_total.
HttpAttemptResult HttpAttempt(const std::string& host, int port,
                              const std::string& path,
                              const HttpCallOptions& options = {});

/// Performs one HTTP/1.1 call (Connection: close) with the retry policy
/// above. Returns the final reply for ANY complete response, 200 or not —
/// callers branch on reply.status. IOError only when no attempt produced
/// a complete response.
Result<HttpReply> HttpCall(const std::string& host, int port,
                           const std::string& path,
                           const HttpCallOptions& options = {});

/// Minimal blocking GET for `schemr top`, federation scrapes and the
/// tests. Returns the response body on any 200; Unavailable("http <code>:
/// <body prefix>") otherwise; IOError on connect/read failures.
Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path,
                            double timeout_seconds = 5.0);

}  // namespace schemr

#endif  // SCHEMR_SERVICE_HTTP_SERVER_H_
