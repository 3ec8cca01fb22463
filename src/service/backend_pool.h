// Replica health tracking and routing for the fleet coordinator
// (DESIGN.md §14).
//
// A BackendPool watches N independent `schemr serve` processes — replicas
// with identical corpora, not shards — and answers one question for the
// coordinator: "which backend takes this request?" Health is judged two
// ways, because each signal fails differently:
//
//   * Active probes: a probe thread GETs every backend's /readyz on its
//     introspection port each interval. A probe distinguishes "draining"
//     (503 + readiness body) from "dead" (connect refused), which passive
//     accounting cannot — a draining backend still answers its in-flight
//     requests, a dead one answers nothing.
//   * Passive outcomes: the coordinator reports every forwarded request's
//     fate. `failure_threshold` consecutive failures trip a circuit
//     breaker open; after `open_cooldown_seconds` the probe thread moves
//     it to half-open and a single successful /readyz probe re-closes it.
//     Live traffic never probes an open breaker — the probe thread does,
//     so a dead backend costs the request path nothing.
//
// Routing is power-of-two-choices on in-flight count over routable
// backends (breaker closed, probe-ready, not admin-draining): pick two
// distinct candidates at random, route to the less loaded. This bounds
// herding without the bookkeeping of full least-loaded.
//
// The pool also keeps an admin draining bit the fleet supervisor sets
// before SIGINTing a replica (rolling drain: stop routing first, then
// drain).
//
// Thread safety: everything is safe to call concurrently; one mutex
// guards the backend table (probe I/O happens off-lock against a copied
// endpoint).

#ifndef SCHEMR_SERVICE_BACKEND_POOL_H_
#define SCHEMR_SERVICE_BACKEND_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/timer.h"

namespace schemr {

/// One replica's endpoints. A respawned replica comes back on fresh
/// ephemeral ports; the supervisor re-points the slot with
/// BackendPool::UpdateBackend rather than reserving ports up front.
struct BackendConfig {
  std::string host = "127.0.0.1";
  int search_port = 0;         ///< POST /search
  int introspection_port = 0;  ///< GET /readyz (probe target)
  std::string name;            ///< "replica0"; for stats and logs
};

/// Circuit breaker state, the classic three-state machine.
enum class BreakerState {
  kClosed,    ///< healthy: routable, failures counted
  kOpen,      ///< tripped: not routable until cooldown elapses
  kHalfOpen,  ///< cooldown done: one successful probe re-closes
};

const char* BreakerStateName(BreakerState state);

struct BackendPoolOptions {
  /// Probe cadence. Each cycle GETs every backend's /readyz.
  double probe_interval_seconds = 0.25;
  double probe_timeout_seconds = 1.0;
  /// Consecutive passive failures that trip the breaker open.
  int failure_threshold = 3;
  /// Open → half-open after this long without traffic.
  double open_cooldown_seconds = 0.5;
  /// Seed for the power-of-two candidate picks (deterministic tests).
  uint64_t route_seed = 1;
};

/// Point-in-time view of one backend, for /statusz and tests.
struct BackendSnapshot {
  std::string name;
  std::string host;
  int search_port = 0;
  int introspection_port = 0;
  BreakerState breaker = BreakerState::kClosed;
  bool draining = false;  ///< admin bit (rolling drain in progress)
  bool ready = false;     ///< last probe verdict
  bool routable = false;  ///< ready && !draining && breaker != open
  uint64_t in_flight = 0;
  uint64_t requests = 0;  ///< passive outcomes reported
  uint64_t failures = 0;
  int consecutive_failures = 0;
};

class BackendPool {
 public:
  BackendPool(std::vector<BackendConfig> backends,
              BackendPoolOptions options = {});
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Runs one synchronous probe sweep (so backends that are already up
  /// are routable immediately), then starts the probe thread.
  void Start();
  /// Stops the probe thread. Idempotent.
  void Stop();

  size_t size() const { return backends_.size(); }

  /// Picks a routable backend by power-of-two-choices on in-flight
  /// count, skipping ids in `exclude` (backends this request already
  /// failed over from). Returns -1 when no routable backend remains.
  /// The pick's in-flight count is incremented; Release() it.
  int Acquire(const std::vector<int>& exclude = {});
  void Release(int id);

  /// Passive outcome accounting from the coordinator: failures feed the
  /// consecutive-failure breaker, successes reset it.
  void ReportOutcome(int id, bool success);

  /// Admin draining bit: a draining backend stops receiving new routes
  /// immediately but keeps its breaker state (it is healthy, just
  /// leaving). The fleet supervisor sets this before SIGINT.
  void SetDraining(int id, bool draining);

  /// Re-points a slot at a respawned replica (fresh ports) and resets
  /// its breaker to closed-but-not-ready; the next probe readmits it.
  void UpdateBackend(int id, const BackendConfig& config);

  BackendConfig Config(int id) const;

  /// Runs one probe sweep inline (tests; Start does this once too).
  void ProbeNow();

  std::vector<BackendSnapshot> Snapshot() const;
  size_t RoutableCount() const;

  /// Flat JSON fragment ("replica0.state": "closed", ...) appended into
  /// the coordinator's /statusz object; `out` must be inside an open
  /// JSON object literal.
  void AppendStatsJson(std::string* out) const;

 private:
  struct Backend {
    BackendConfig config;
    BreakerState breaker = BreakerState::kClosed;
    bool draining = false;
    bool ready = false;
    double opened_at = 0.0;  ///< clock_ reading at the open transition
    int consecutive_failures = 0;
    uint64_t in_flight = 0;
    uint64_t requests = 0;
    uint64_t failures = 0;
    /// Bumped by UpdateBackend so a probe verdict computed against the
    /// old endpoints is dropped instead of applied to the new ones.
    uint64_t generation = 0;
  };

  bool RoutableLocked(const Backend& b) const {
    return b.ready && !b.draining && b.breaker != BreakerState::kOpen;
  }
  void TransitionLocked(Backend* b, BreakerState next);
  void ProbeLoop();
  /// Probes one backend (off-lock I/O) and applies the verdict.
  void ProbeBackend(size_t id);
  void PublishGaugesLocked();

  const BackendPoolOptions options_;
  mutable std::mutex mutex_;
  std::vector<Backend> backends_;
  Rng route_rng_;

  std::atomic<bool> probing_{false};
  std::thread prober_;
  Timer clock_;  ///< monotonic time source for breaker cooldowns
};

}  // namespace schemr

#endif  // SCHEMR_SERVICE_BACKEND_POOL_H_
