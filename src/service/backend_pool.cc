#include "service/backend_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/http_server.h"
#include "util/fault_injection.h"

namespace schemr {

namespace {

// Process-wide schemr_coord_* pool series. The registry is label-free,
// so these aggregate across backends; per-backend detail lives in the
// coordinator's /statusz.
struct PoolMetrics {
  Gauge* routable;
  Gauge* draining;
  Gauge* open;
  Counter* breaker_transitions;
  Counter* probe_failures;

  static const PoolMetrics& Get() {
    static const PoolMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new PoolMetrics{
          r.GetGauge("schemr_coord_backends_routable",
                     "Backends currently eligible for routing (ready, "
                     "not draining, breaker not open)."),
          r.GetGauge("schemr_coord_backends_draining",
                     "Backends with the admin draining bit set."),
          r.GetGauge("schemr_coord_backends_open",
                     "Backends whose circuit breaker is open."),
          r.GetCounter("schemr_coord_breaker_transitions_total",
                       "Circuit breaker state transitions across all "
                       "backends."),
          r.GetCounter("schemr_coord_probe_failures_total",
                       "Health probes that failed (connect failure, "
                       "timeout, or injected coord/probe/fail)."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

BackendPool::BackendPool(std::vector<BackendConfig> backends,
                         BackendPoolOptions options)
    : options_(options), route_rng_(options.route_seed) {
  backends_.reserve(backends.size());
  for (size_t i = 0; i < backends.size(); ++i) {
    Backend b;
    b.config = std::move(backends[i]);
    if (b.config.name.empty()) {
      b.config.name = "replica" + std::to_string(i);
    }
    backends_.push_back(std::move(b));
  }
}

BackendPool::~BackendPool() { Stop(); }

void BackendPool::Start() {
  ProbeNow();
  bool expected = false;
  if (!probing_.compare_exchange_strong(expected, true)) return;
  prober_ = std::thread([this] { ProbeLoop(); });
}

void BackendPool::Stop() {
  probing_.store(false, std::memory_order_release);
  if (prober_.joinable()) prober_.join();
}

void BackendPool::TransitionLocked(Backend* b, BreakerState next) {
  if (b->breaker == next) return;
  b->breaker = next;
  if (next == BreakerState::kOpen) b->opened_at = clock_.ElapsedSeconds();
  if (next == BreakerState::kClosed) b->consecutive_failures = 0;
  PoolMetrics::Get().breaker_transitions->Increment();
  PublishGaugesLocked();
}

void BackendPool::PublishGaugesLocked() {
  size_t routable = 0, draining = 0, open = 0;
  for (const Backend& b : backends_) {
    if (RoutableLocked(b)) ++routable;
    if (b.draining) ++draining;
    if (b.breaker == BreakerState::kOpen) ++open;
  }
  PoolMetrics::Get().routable->Set(static_cast<double>(routable));
  PoolMetrics::Get().draining->Set(static_cast<double>(draining));
  PoolMetrics::Get().open->Set(static_cast<double>(open));
}

int BackendPool::Acquire(const std::vector<int>& exclude) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> candidates;
  candidates.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (std::find(exclude.begin(), exclude.end(), static_cast<int>(i)) !=
        exclude.end()) {
      continue;
    }
    if (RoutableLocked(backends_[i])) candidates.push_back(static_cast<int>(i));
  }
  if (candidates.empty()) return -1;
  int pick;
  if (candidates.size() == 1) {
    pick = candidates[0];
  } else {
    // Power-of-two-choices: two distinct random candidates, route to the
    // one with fewer requests in flight (ties go to the first pick).
    const size_t a = route_rng_.NextBelow(candidates.size());
    size_t b = route_rng_.NextBelow(candidates.size() - 1);
    if (b >= a) ++b;
    pick = backends_[candidates[b]].in_flight <
                   backends_[candidates[a]].in_flight
               ? candidates[b]
               : candidates[a];
  }
  ++backends_[pick].in_flight;
  return pick;
}

void BackendPool::Release(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= backends_.size()) return;
  if (backends_[id].in_flight > 0) --backends_[id].in_flight;
}

void BackendPool::ReportOutcome(int id, bool success) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= backends_.size()) return;
  Backend& b = backends_[id];
  ++b.requests;
  if (success) {
    b.consecutive_failures = 0;
    // A live answer is as good as a probe: it re-closes a half-open
    // breaker.
    if (b.breaker == BreakerState::kHalfOpen) {
      TransitionLocked(&b, BreakerState::kClosed);
    }
    return;
  }
  ++b.failures;
  ++b.consecutive_failures;
  if (b.breaker == BreakerState::kHalfOpen ||
      (b.breaker == BreakerState::kClosed &&
       b.consecutive_failures >= options_.failure_threshold)) {
    TransitionLocked(&b, BreakerState::kOpen);
  }
}

void BackendPool::SetDraining(int id, bool draining) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= backends_.size()) return;
  backends_[id].draining = draining;
  PublishGaugesLocked();
}

void BackendPool::UpdateBackend(int id, const BackendConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= backends_.size()) return;
  Backend& b = backends_[id];
  b.config = config;
  if (b.config.name.empty()) b.config.name = "replica" + std::to_string(id);
  ++b.generation;  // in-flight probe verdicts against the old ports drop
  b.ready = false;  // the next probe readmits the fresh process
  b.consecutive_failures = 0;
  TransitionLocked(&b, BreakerState::kClosed);
  PublishGaugesLocked();
}

BackendConfig BackendPool::Config(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= backends_.size()) return {};
  return backends_[id].config;
}

void BackendPool::ProbeBackend(size_t id) {
  BackendConfig config;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= backends_.size()) return;
    Backend& b = backends_[id];
    // Cooldown check rides the probe cadence: an open breaker past its
    // cooldown goes half-open, and this very probe decides readmission.
    if (b.breaker == BreakerState::kOpen &&
        clock_.ElapsedSeconds() - b.opened_at >=
            options_.open_cooldown_seconds) {
      TransitionLocked(&b, BreakerState::kHalfOpen);
    }
    config = b.config;
    generation = b.generation;
  }

  // Probe I/O off-lock. Any complete HTTP response means the process is
  // alive (half-open → closed); only a 200 means it routes.
  bool alive = false;
  bool ready = false;
  if (FaultInjector::Global().Check("coord/probe/fail") == 0) {
    HttpCallOptions probe;
    probe.method = "GET";
    probe.attempt_timeout_seconds = options_.probe_timeout_seconds;
    auto reply = HttpCall(config.host, config.introspection_port, "/readyz",
                          probe);
    if (reply.ok()) {
      alive = true;
      ready = reply->status == 200;
    }
  }
  if (!alive) PoolMetrics::Get().probe_failures->Increment();

  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= backends_.size()) return;
  Backend& b = backends_[id];
  if (b.generation != generation) return;  // re-pointed mid-probe: stale
  b.ready = ready;
  if (alive && b.breaker == BreakerState::kHalfOpen) {
    TransitionLocked(&b, BreakerState::kClosed);
  } else if (!alive && b.breaker == BreakerState::kHalfOpen) {
    TransitionLocked(&b, BreakerState::kOpen);
  }
  PublishGaugesLocked();
}

void BackendPool::ProbeNow() {
  for (size_t i = 0; i < backends_.size(); ++i) ProbeBackend(i);
}

void BackendPool::ProbeLoop() {
  while (probing_.load(std::memory_order_acquire)) {
    ProbeNow();
    // Sleep in short ticks so Stop() returns promptly.
    double remaining = options_.probe_interval_seconds;
    while (remaining > 0.0 && probing_.load(std::memory_order_acquire)) {
      const double tick = std::min(remaining, 0.02);
      std::this_thread::sleep_for(std::chrono::duration<double>(tick));
      remaining -= tick;
    }
  }
}

std::vector<BackendSnapshot> BackendPool::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (const Backend& b : backends_) {
    BackendSnapshot s;
    s.name = b.config.name;
    s.host = b.config.host;
    s.search_port = b.config.search_port;
    s.introspection_port = b.config.introspection_port;
    s.breaker = b.breaker;
    s.draining = b.draining;
    s.ready = b.ready;
    s.routable = RoutableLocked(b);
    s.in_flight = b.in_flight;
    s.requests = b.requests;
    s.failures = b.failures;
    s.consecutive_failures = b.consecutive_failures;
    out.push_back(std::move(s));
  }
  return out;
}

size_t BackendPool::RoutableCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const Backend& b : backends_) {
    if (RoutableLocked(b)) ++n;
  }
  return n;
}

void BackendPool::AppendStatsJson(std::string* out) const {
  std::vector<BackendSnapshot> snapshot = Snapshot();
  JsonNum(out, "pool.backends", static_cast<double>(snapshot.size()));
  size_t routable = 0;
  for (const BackendSnapshot& s : snapshot) routable += s.routable ? 1 : 0;
  JsonNum(out, "pool.routable", static_cast<double>(routable));
  for (const BackendSnapshot& s : snapshot) {
    const std::string& p = s.name;
    JsonStr(out, p + ".state", BreakerStateName(s.breaker));
    JsonBool(out, p + ".ready", s.ready);
    JsonBool(out, p + ".draining", s.draining);
    JsonBool(out, p + ".routable", s.routable);
    JsonNum(out, p + ".search_port", static_cast<double>(s.search_port));
    // `schemr trace` walks these ports to collect each replica's /tracez.
    JsonNum(out, p + ".introspection_port",
            static_cast<double>(s.introspection_port));
    JsonNum(out, p + ".in_flight", static_cast<double>(s.in_flight));
    JsonNum(out, p + ".requests", static_cast<double>(s.requests));
    JsonNum(out, p + ".failures", static_cast<double>(s.failures));
  }
}

}  // namespace schemr
