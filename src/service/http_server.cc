#include "service/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace schemr {

namespace {

// Process-wide schemr_http_* series, shared by every HttpServer instance
// (the introspection plane and the search front end both count here;
// per-instance splits come from HttpServer::Stats).
struct HttpMetrics {
  Counter* connections;
  Gauge* active;
  Counter* shed;
  Counter* timeouts;
  Counter* bytes;

  static const HttpMetrics& Get() {
    static const HttpMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new HttpMetrics{
          r.GetCounter("schemr_http_connections_total",
                       "Sockets accepted by embedded HTTP listeners."),
          r.GetGauge("schemr_http_active",
                     "Accepted HTTP connections currently alive."),
          r.GetCounter("schemr_http_shed_total",
                       "Connections answered 503 inline (connection cap "
                       "or saturated handler pool)."),
          r.GetCounter("schemr_http_timeouts_total",
                       "Connections answered 408 (header or body "
                       "stall past its deadline)."),
          r.GetCounter("schemr_http_bytes_total",
                       "Bytes read from plus written to HTTP "
                       "connections."),
      };
    }();
    return *metrics;
  }
};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 502:
      return "Bad Gateway";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

void SetSocketTimeout(int fd, double seconds, int which) {
  // Zero would mean "block forever"; clamp stalls to a short tick so the
  // deadline loop regains control.
  seconds = std::max(seconds, 0.01);
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

bool ParseContentLength(std::string_view text, uint64_t max_body_bytes,
                        uint64_t* value, HttpParseOutcome* outcome) {
  // Strict: digits only. Signs, whitespace, hex, and empty values are all
  // refused — a front end must never infer a length.
  if (text.empty()) {
    *outcome = HttpParseOutcome::kBadRequest;
    return false;
  }
  uint64_t parsed = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      *outcome = HttpParseOutcome::kBadRequest;
      return false;
    }
    if (parsed > (UINT64_MAX - 9) / 10) {
      // Overflow: the declared length is absurd, refuse as oversized.
      *outcome = HttpParseOutcome::kBodyTooLarge;
      return false;
    }
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  if (parsed > max_body_bytes) {
    *outcome = HttpParseOutcome::kBodyTooLarge;
    return false;
  }
  *value = parsed;
  return true;
}

}  // namespace

HttpParseOutcome ParseRequestHead(std::string_view data, size_t max_head_bytes,
                                  size_t max_body_bytes,
                                  ParsedRequestHead* out) {
  // Find the head terminator within the cap. Only the capped prefix is
  // ever scanned, so an attacker cannot make parsing cost scale with what
  // they manage to send.
  std::string_view window = data.substr(0, max_head_bytes);
  size_t head_end = window.find("\r\n\r\n");
  size_t terminator = 4;
  if (head_end == std::string_view::npos) {
    head_end = window.find("\n\n");
    terminator = 2;
  }
  if (head_end == std::string_view::npos) {
    return data.size() >= max_head_bytes ? HttpParseOutcome::kHeadTooLarge
                                         : HttpParseOutcome::kNeedMore;
  }
  out->head_bytes = head_end + terminator;
  std::string_view head = data.substr(0, head_end);

  // Request line: METHOD SP target SP HTTP/x.y
  size_t line_end = head.find_first_of("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    return HttpParseOutcome::kBadRequest;
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return HttpParseOutcome::kBadRequest;
  }
  std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") return HttpParseOutcome::kBadRequest;
  HttpRequest& request = out->request;
  request.method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') {
    return HttpParseOutcome::kBadRequest;
  }
  const size_t q = target.find('?');
  if (q == std::string_view::npos) {
    request.path = std::string(target);
  } else {
    request.path = std::string(target.substr(0, q));
    request.query = std::string(target.substr(q + 1));
  }

  // Header fields. Names lowercased; surrounding whitespace trimmed from
  // values; a field line without a colon is malformed input, not noise.
  bool saw_content_length = false;
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end;
  while (pos < head.size()) {
    // Skip the line break (handles both \r\n and bare \n).
    if (head[pos] == '\r') ++pos;
    if (pos < head.size() && head[pos] == '\n') ++pos;
    if (pos >= head.size()) break;
    size_t eol = head.find_first_of("\r\n", pos);
    std::string_view field = head.substr(
        pos, eol == std::string_view::npos ? head.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol;
    if (field.empty()) continue;
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return HttpParseOutcome::kBadRequest;
    }
    std::string name(field.substr(0, colon));
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    std::string_view value = field.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    if (name == "content-length") {
      // Disagreeing duplicates are a classic smuggling vector; refuse.
      if (saw_content_length &&
          request.headers["content-length"] != std::string(value)) {
        return HttpParseOutcome::kBadRequest;
      }
      saw_content_length = true;
    }
    request.headers[name] = std::string(value);
  }

  if (request.headers.count("transfer-encoding") != 0) {
    return HttpParseOutcome::kUnsupported;
  }
  out->content_length = 0;
  if (saw_content_length) {
    HttpParseOutcome bad = HttpParseOutcome::kBadRequest;
    if (!ParseContentLength(request.headers["content-length"], max_body_bytes,
                            &out->content_length, &bad)) {
      return bad;
    }
  }
  return HttpParseOutcome::kComplete;
}

int HttpStatusForOutcome(HttpParseOutcome outcome) {
  switch (outcome) {
    case HttpParseOutcome::kComplete:
    case HttpParseOutcome::kNeedMore:
      return 0;
    case HttpParseOutcome::kBadRequest:
      return 400;
    case HttpParseOutcome::kHeadTooLarge:
      return 431;
    case HttpParseOutcome::kBodyTooLarge:
      return 413;
    case HttpParseOutcome::kUnsupported:
      return 501;
  }
  return 500;
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(0.0); }

void HttpServer::Route(std::string method, std::string path, Handler handler) {
  routes_[std::move(path)][std::move(method)] = std::move(handler);
}

Status HttpServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    return Status::InvalidArgument("http server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("http socket() failed");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
  // Non-blocking listener: poll() gates accepts, and a connection that
  // vanishes between poll and accept must not stall the acceptor.
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad http bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot bind http port " +
                           std::to_string(options_.port) + ": " +
                           std::strerror(err));
  }
  // Accepted connections waiting for a handler beyond this are answered
  // 503 by the acceptor itself.
  constexpr size_t kMaxPendingConnections = 16;
  if (::listen(fd, static_cast<int>(kMaxPendingConnections) + 16) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("http listen() failed: ") +
                           std::strerror(err));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  BoundedExecutor::Options pool;
  pool.num_workers = std::max<size_t>(1, options_.handler_threads);
  pool.queue_capacity = kMaxPendingConnections;
  handlers_ = std::make_unique<BoundedExecutor>(pool);

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&HttpServer::AcceptLoop, this);
  return Status::OK();
}

void HttpServer::BeginDrain() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  // With the acceptor gone, closing the listener is race-free and makes
  // new connects fail fast (a clean, unambiguous signal clients may act
  // on), while in-flight handlers keep finishing their responses.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::Stop(double drain_seconds) {
  BeginDrain();
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // In-flight handlers get the drain window; connections still queued or
  // running at the deadline are cancelled — their sockets close without a
  // response, which a client treats like any other connection loss.
  if (handlers_ != nullptr) (void)handlers_->Shutdown(drain_seconds);
}

HttpServerStats HttpServer::Stats() const {
  HttpServerStats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  return stats;
}

void HttpServer::CloseConnection(int fd, bool lingering) {
  if (lingering) {
    // Closing with unread input pending makes the kernel send RST and
    // discard the just-written response — the inline 503 would never
    // reach the client it is meant to back off. Half-close instead and
    // drain (bounded) whatever the peer was still sending until it sees
    // our FIN and hangs up.
    ::shutdown(fd, SHUT_WR);
    SetSocketTimeout(fd, 0.5, SO_RCVTIMEO);
    char discard[4096];
    for (int i = 0; i < 16; ++i) {
      if (::recv(fd, discard, sizeof(discard), 0) <= 0) break;
    }
  }
  ::close(fd);
  active_.fetch_sub(1, std::memory_order_relaxed);
  HttpMetrics::Get().active->Add(-1.0);
}

void HttpServer::AcceptLoop() {
  FaultInjector& faults = FaultInjector::Global();
  struct pollfd pfd;
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  // Backoff for transient accept() failures (fd exhaustion, kernel
  // resource pressure): retrying immediately would spin the CPU exactly
  // when the process is least able to afford it.
  int backoff_ms = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listener gone (EBADF): Stop owns the fd now
    }
    if (ready == 0) continue;
    const int conn =
        faults.Accept("net/accept/fail", listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      const int err = errno;
      if (err == EINTR || err == ECONNABORTED || err == EAGAIN ||
          err == EWOULDBLOCK) {
        backoff_ms = 0;
        continue;  // momentary; the next poll round retries for free
      }
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Resource exhaustion is transient by definition (connections
        // close, memory frees). Back off and keep the listener alive —
        // dying here would turn a load spike into an outage.
        backoff_ms = backoff_ms == 0 ? 10 : std::min(backoff_ms * 2, 200);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        continue;
      }
      break;  // non-transient (EBADF/EINVAL): the socket itself is gone
    }
    backoff_ms = 0;
    (void)::fcntl(conn, F_SETFD, FD_CLOEXEC);
    const HttpMetrics& metrics = HttpMetrics::Get();
    connections_.fetch_add(1, std::memory_order_relaxed);
    metrics.connections->Increment();
    active_.fetch_add(1, std::memory_order_relaxed);
    metrics.active->Add(1.0);

    SetSocketTimeout(conn, options_.write_timeout_seconds, SO_SNDTIMEO);
    if (active_.load(std::memory_order_relaxed) > options_.max_connections) {
      // Hard cap: shed inline with a tiny fixed response. Accept-then-503
      // beats letting the backlog rot — the client learns immediately and
      // backs off instead of timing out.
      shed_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed->Increment();
      HttpResponse overloaded;
      overloaded.status = 503;
      overloaded.retry_after_seconds = options_.shed_retry_after_seconds;
      overloaded.body = "connection limit reached\n";
      WriteResponse(conn, overloaded);
      CloseConnection(conn, /*lingering=*/true);
      continue;
    }
    faults.Perturb("http/accept/handoff");
    Status submitted = handlers_->TrySubmit([this, conn](bool cancelled) {
      if (cancelled) {
        CloseConnection(conn);
        return;
      }
      ServeConnection(conn);
    });
    if (!submitted.ok()) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed->Increment();
      HttpResponse overloaded;
      overloaded.status = 503;
      overloaded.retry_after_seconds = options_.shed_retry_after_seconds;
      overloaded.body = "handler pool saturated\n";
      WriteResponse(conn, overloaded);
      CloseConnection(conn, /*lingering=*/true);
    }
  }
}

bool HttpServer::WriteResponse(int fd, const HttpResponse& response) {
  FaultInjector& faults = FaultInjector::Global();
  std::string head;
  head.reserve(256);
  char line[128];
  std::snprintf(line, sizeof(line), "HTTP/1.1 %d %s\r\n", response.status,
                ReasonPhrase(response.status));
  head += line;
  head += "Content-Type: " + response.content_type + "\r\n";
  std::snprintf(line, sizeof(line), "Content-Length: %zu\r\n",
                response.body.size());
  head += line;
  if (response.retry_after_seconds >= 0.0) {
    std::snprintf(line, sizeof(line), "Retry-After: %d\r\n",
                  static_cast<int>(std::ceil(response.retry_after_seconds)));
    head += line;
  }
  for (const auto& [name, value] : response.headers) {
    head += name + ": " + value + "\r\n";
  }
  head += "Connection: close\r\n\r\n";

  auto send_all = [this, &faults, fd](std::string_view data) {
    while (!data.empty()) {
      const ssize_t n =
          faults.Send("net/write/reset", "net/write/short", fd, data.data(),
                      data.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      bytes_written_.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
      HttpMetrics::Get().bytes->Increment(static_cast<uint64_t>(n));
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  };
  if (!send_all(head)) return false;
  // Mid-response kill site: the chaos harness severs connections between
  // the header and the body, the ambiguous half-delivered state retrying
  // clients must refuse to retry.
  if (faults.Check("net/respond/kill") != 0) {
    (void)::shutdown(fd, SHUT_RDWR);
    return false;
  }
  return send_all(response.body);
}

void HttpServer::ServeConnection(int fd) {
  FaultInjector& faults = FaultInjector::Global();
  const HttpMetrics& metrics = HttpMetrics::Get();
  std::string buffer;
  ParsedRequestHead parsed;
  HttpResponse response;
  bool respond = true;

  // Phase 1: the request head, under the header deadline. The socket
  // timeout is re-tightened to the remaining budget each pass so a peer
  // trickling one byte per tick still runs out of road (slowloris).
  Timer deadline_timer;
  HttpParseOutcome outcome = HttpParseOutcome::kNeedMore;
  char chunk[1024];
  while (outcome == HttpParseOutcome::kNeedMore) {
    const double remaining =
        options_.header_timeout_seconds - deadline_timer.ElapsedSeconds();
    if (remaining <= 0.0) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      metrics.timeouts->Increment();
      response.status = 408;
      response.body = "request head timed out\n";
      outcome = HttpParseOutcome::kBadRequest;  // leave the read loop
      break;
    }
    SetSocketTimeout(fd, remaining, SO_RCVTIMEO);
    const ssize_t n = faults.Recv("net/read/reset", "net/read/short", fd,
                                  chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) {
      // Peer vanished (reset, or closed before a complete head). Nothing
      // coherent to answer; close. An empty connection (port scan,
      // balancer probe) is normal and not an error.
      CloseConnection(fd);
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    bytes_read_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    metrics.bytes->Increment(static_cast<uint64_t>(n));
    outcome = ParseRequestHead(buffer, options_.max_request_bytes,
                               options_.max_body_bytes, &parsed);
  }

  if (response.status == 408) {
    // fall through to the write below
  } else if (outcome != HttpParseOutcome::kComplete) {
    response.status = HttpStatusForOutcome(outcome);
    response.body = std::string(ReasonPhrase(response.status)) + "\n";
  } else {
    // Phase 2: the body, under its own deadline. Bytes read past the head
    // already sit in the buffer (clients legitimately send head+body in
    // one segment); pipelined bytes beyond Content-Length are ignored —
    // every connection serves exactly one request.
    HttpRequest& request = parsed.request;
    request.body = buffer.substr(
        parsed.head_bytes,
        static_cast<size_t>(std::min<uint64_t>(
            parsed.content_length, buffer.size() - parsed.head_bytes)));
    deadline_timer.Reset();
    bool body_ok = true;
    while (request.body.size() < parsed.content_length) {
      const double remaining =
          options_.body_timeout_seconds - deadline_timer.ElapsedSeconds();
      if (remaining <= 0.0) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        metrics.timeouts->Increment();
        response.status = 408;
        response.body = "request body timed out\n";
        body_ok = false;
        break;
      }
      SetSocketTimeout(fd, remaining, SO_RCVTIMEO);
      const size_t want = std::min(
          sizeof(chunk),
          static_cast<size_t>(parsed.content_length - request.body.size()));
      const ssize_t n =
          faults.Recv("net/read/reset", "net/read/short", fd, chunk, want, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n == 0) {
        // Peer half-closed with the body short of its declared length:
        // the request is malformed, and the peer can still read our
        // verdict on its receive side.
        response.status = 400;
        response.body = "request body shorter than content-length\n";
        body_ok = false;
        break;
      }
      if (n < 0) {
        CloseConnection(fd);  // reset mid-body; nobody left to answer
        return;
      }
      request.body.append(chunk, static_cast<size_t>(n));
      bytes_read_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      metrics.bytes->Increment(static_cast<uint64_t>(n));
    }

    if (body_ok) {
      auto path_it = routes_.find(request.path);
      if (path_it == routes_.end()) {
        response.status = 404;
        response.body = "no such endpoint: " + request.path + "\n";
        response.body += "endpoints:";
        for (const auto& [path, methods] : routes_) {
          (void)methods;
          response.body += " " + path;
        }
        response.body += "\n";
      } else {
        auto method_it = path_it->second.find(request.method);
        if (method_it == path_it->second.end()) {
          response.status = 405;
          response.body = request.path + " does not accept " +
                          request.method + "\n";
        } else {
          response = method_it->second(request);
        }
      }
    }
  }

  respond = WriteResponse(fd, response);
  (void)respond;  // a dead peer mid-write is closed like any other
  CloseConnection(fd, /*lingering=*/true);
}

// --- client -----------------------------------------------------------------

namespace {

/// Deterministic jitter stream: splitmix64 over the seed, mapped into
/// [0.5, 1.0]. Same seed → same schedule, so backoff is replayable in
/// tests and the load generator.
double JitterFactor(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return 0.5 + 0.5 * (static_cast<double>(z >> 11) / 9007199254740992.0);
}

// Process-wide schemr_client_* series: every outbound attempt counts
// here, whether it came from HttpCall's retry loop or the coordinator's
// failover path.
struct ClientMetrics {
  Counter* attempts;
  Counter* retries;
  Counter* backoff_ms;

  static const ClientMetrics& Get() {
    static const ClientMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new ClientMetrics{
          r.GetCounter("schemr_client_attempts_total",
                       "Outbound HTTP attempts (first tries + "
                       "retries)."),
          r.GetCounter("schemr_client_retries_total",
                       "HttpCall retries (connect failure or complete "
                       "503-with-Retry-After)."),
          r.GetCounter("schemr_client_backoff_ms",
                       "Milliseconds HttpCall spent sleeping between "
                       "attempts (backoff plus honored Retry-After)."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

HttpResponseOutcome ParseResponseHead(std::string_view data,
                                      size_t max_head_bytes,
                                      ParsedResponseHead* out) {
  // Only the capped prefix is scanned, so a hostile server cannot make
  // parsing cost scale with what it manages to send.
  std::string_view window = data.substr(0, max_head_bytes);
  size_t head_end = window.find("\r\n\r\n");
  size_t terminator = 4;
  if (head_end == std::string_view::npos) {
    head_end = window.find("\n\n");
    terminator = 2;
  }
  if (head_end == std::string_view::npos) {
    return data.size() >= max_head_bytes ? HttpResponseOutcome::kMalformed
                                         : HttpResponseOutcome::kNeedMore;
  }
  out->head_bytes = head_end + terminator;
  std::string_view head = data.substr(0, head_end);

  // Status line: HTTP/x.y SP NNN [SP reason]. The status is strictly
  // three digits in 100..599; the reason phrase is free-form (it may
  // even be absent) but never parsed, so an oversized one costs nothing.
  size_t line_end = head.find_first_of("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (line.substr(0, 5) != "HTTP/") return HttpResponseOutcome::kMalformed;
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return HttpResponseOutcome::kMalformed;
  std::string_view code = line.substr(sp + 1);
  const size_t sp2 = code.find(' ');
  if (sp2 != std::string_view::npos) code = code.substr(0, sp2);
  if (code.size() != 3) return HttpResponseOutcome::kMalformed;
  int status = 0;
  for (char c : code) {
    if (c < '0' || c > '9') return HttpResponseOutcome::kMalformed;
    status = status * 10 + (c - '0');
  }
  if (status < 100 || status > 599) return HttpResponseOutcome::kMalformed;
  out->status = status;

  // Header fields: same shape as the request parser — names lowercased,
  // values trimmed, a field line without a colon refused, disagreeing
  // duplicate Content-Length refused. Other duplicates (Retry-After
  // included) last-win; the caller clamps Retry-After anyway.
  bool saw_content_length = false;
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end;
  while (pos < head.size()) {
    if (head[pos] == '\r') ++pos;
    if (pos < head.size() && head[pos] == '\n') ++pos;
    if (pos >= head.size()) break;
    size_t eol = head.find_first_of("\r\n", pos);
    std::string_view field = head.substr(
        pos, eol == std::string_view::npos ? head.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol;
    if (field.empty()) continue;
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return HttpResponseOutcome::kMalformed;
    }
    std::string name(field.substr(0, colon));
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    std::string_view value = field.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    if (name == "content-length") {
      if (saw_content_length &&
          out->headers["content-length"] != std::string(value)) {
        return HttpResponseOutcome::kMalformed;
      }
      saw_content_length = true;
    }
    out->headers[name] = std::string(value);
  }
  return HttpResponseOutcome::kComplete;
}

HttpAttemptResult HttpAttempt(const std::string& host, int port,
                              const std::string& path,
                              const HttpCallOptions& options) {
  ClientMetrics::Get().attempts->Increment();
  HttpAttemptResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    result.kind = HttpAttemptResult::Kind::kConnectFailed;
    result.error = "socket() failed";
    return result;
  }
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
  SetSocketTimeout(fd, options.attempt_timeout_seconds, SO_RCVTIMEO);
  SetSocketTimeout(fd, options.attempt_timeout_seconds, SO_SNDTIMEO);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    result.kind = HttpAttemptResult::Kind::kBroken;  // config error: no retry
    result.error = "bad host '" + host + "' (dotted IPv4 expected)";
    return result;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    result.kind = HttpAttemptResult::Kind::kConnectFailed;
    result.error = "cannot connect to " + host + ":" + std::to_string(port) +
                   ": " + std::strerror(err);
    return result;
  }

  std::string request = options.method + " " + path + " HTTP/1.1\r\n";
  request += "Host: " + host + "\r\n";
  for (const auto& [name, value] : options.headers) {
    request += name + ": " + value + "\r\n";
  }
  if (options.method != "GET" || !options.body.empty()) {
    request += "Content-Type: " + options.content_type + "\r\n";
    request += "Content-Length: " + std::to_string(options.body.size()) +
               "\r\n";
  }
  request += "Connection: close\r\n\r\n";
  request += options.body;

  const Timer attempt_timer;
  std::string_view remaining_send = request;
  while (!remaining_send.empty()) {
    const ssize_t n = ::send(fd, remaining_send.data(), remaining_send.size(),
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      result.error = "request write failed mid-exchange";
      return result;
    }
    remaining_send.remove_prefix(static_cast<size_t>(n));
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    if (attempt_timer.ElapsedSeconds() > options.attempt_timeout_seconds) {
      ::close(fd);
      result.error = "attempt timed out reading the response";
      return result;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      result.error = std::string("response read failed: ") +
                     std::strerror(errno);
      return result;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  ParsedResponseHead head;
  // The head cap mirrors the server's default: a reply head beyond it is
  // hostile or broken either way.
  if (ParseResponseHead(raw, 64 * 1024, &head) !=
      HttpResponseOutcome::kComplete) {
    result.error = "malformed HTTP response head";
    return result;
  }
  result.reply.status = head.status;
  result.reply.headers = std::move(head.headers);
  // Truncation check: a declared length the body doesn't meet means the
  // connection died mid-body — ambiguous, not a complete response.
  std::string body = raw.substr(head.head_bytes);
  auto it = result.reply.headers.find("content-length");
  if (it != result.reply.headers.end()) {
    uint64_t declared = 0;
    HttpParseOutcome unused = HttpParseOutcome::kBadRequest;
    if (ParseContentLength(it->second, UINT64_MAX / 2, &declared, &unused) &&
        body.size() < declared) {
      result.error = "response truncated mid-body";
      return result;
    }
    if (body.size() > declared) body.resize(declared);
  }
  result.reply.body = std::move(body);
  result.kind = HttpAttemptResult::Kind::kOk;
  return result;
}

Result<HttpReply> HttpCall(const std::string& host, int port,
                           const std::string& path,
                           const HttpCallOptions& options) {
  // A 503's Retry-After floor is honored up to this cap, so a hostile or
  // confused server cannot park the client for minutes.
  constexpr double kMaxRetryAfterSeconds = 5.0;
  constexpr double kBackoffMaxMs = 2000.0;
  uint64_t jitter_state = options.jitter_seed;
  const int attempts = std::max(1, options.max_attempts);
  const auto backoff_ms = [&](int attempt) {
    return std::min(options.backoff_base_ms *
                        static_cast<double>(1ull << (attempt - 1)),
                    kBackoffMaxMs) *
           JitterFactor(&jitter_state);
  };
  const auto sleep_ms = [](double ms) {
    ClientMetrics::Get().backoff_ms->Increment(
        static_cast<uint64_t>(std::max(ms, 0.0)));
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(ms * 1e3)));
  };
  std::string last_error;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) ClientMetrics::Get().retries->Increment();
    HttpAttemptResult result = HttpAttempt(host, port, path, options);
    result.reply.attempts = attempt;
    if (result.kind == HttpAttemptResult::Kind::kOk) {
      const bool retryable_503 =
          result.reply.status == 503 &&
          result.reply.headers.count("retry-after") != 0;
      if (!retryable_503 || attempt == attempts) return result.reply;
      // The server said "come back later": honor its hint, floored by our
      // own backoff curve and capped.
      double retry_after_s =
          std::atof(result.reply.headers.at("retry-after").c_str());
      retry_after_s = std::clamp(retry_after_s, 0.0, kMaxRetryAfterSeconds);
      sleep_ms(std::max(retry_after_s * 1e3, backoff_ms(attempt)));
      last_error = "503 retry-after";
      continue;
    }
    last_error = result.error;
    // Mid-exchange failures are final (the request may have executed);
    // connect failures retry until attempts run out.
    if (result.kind == HttpAttemptResult::Kind::kBroken ||
        attempt == attempts) {
      return Status::IOError(last_error + " (attempt " +
                             std::to_string(attempt) + "/" +
                             std::to_string(attempts) + ")");
    }
    sleep_ms(backoff_ms(attempt));
  }
  return Status::IOError(last_error.empty() ? "http call failed" : last_error);
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path,
                            double timeout_seconds) {
  HttpCallOptions options;
  options.attempt_timeout_seconds = timeout_seconds;
  Result<HttpReply> reply = HttpCall(host, port, path, options);
  if (!reply.ok()) return reply.status();
  if (reply->status == 200) return std::move(reply->body);
  std::string prefix = reply->body.substr(0, 120);
  return Status::Unavailable("http " + std::to_string(reply->status) + ": " +
                             prefix);
}

}  // namespace schemr
