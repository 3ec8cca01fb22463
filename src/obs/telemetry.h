// Windowed telemetry and tail-based trace retention (DESIGN.md §12).
//
// The metrics registry (obs/metrics.h) accumulates lifetime totals; a
// live introspection plane needs *current* rates and percentiles ("what
// is the p99 right now", not "since the process started"). Two
// primitives provide that:
//
//   * MetricsSnapshotRing + TelemetrySampler — a background thread
//     periodically copies the whole registry (MetricsRegistry::Collect)
//     into a lock-free ring of immutable samples. A windowed view (1m /
//     5m / 15m) is the delta between the newest sample and the newest
//     sample at least that old: counter deltas become rates, histogram
//     bucket deltas become window-local percentiles. Readers touch only
//     atomic shared_ptr loads; the sampler never blocks a request.
//
//   * TraceRetention — always-on tail-sampled tracing. The serving path
//     traces one request in every sample_every_n (a deterministic
//     counter, no RNG), and every completed request — traced or not —
//     is offered for retention. Bounded per-category rings preferentially
//     keep the interesting tail: errored, shed, and degraded requests are
//     always retained (metadata-only when untraced), the slow ring keeps
//     the N *slowest* rather than the N newest, and healthy fast requests
//     land in a recent-samples ring only when they carried a trace.
//     Default wire responses stay byte-identical: a sampled trace is
//     engine-internal state, never serialized into the response.
//
// Both feed the HTTP introspection endpoints (/statusz, /tracez), GET
// routes on the service's HttpServer (service/http_server.h, DESIGN.md
// §12).

#ifndef SCHEMR_OBS_TELEMETRY_H_
#define SCHEMR_OBS_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_shared_ptr.h"

namespace schemr {

/// One periodic copy of the whole registry, stamped with a monotonic
/// clock reading. Immutable once published.
struct MetricsSample {
  double monotonic_seconds = 0.0;  ///< steady-clock time of the sample
  std::vector<MetricsRegistry::MetricSnapshot> metrics;  ///< name-sorted

  /// The snapshot named `name`, or null.
  const MetricsRegistry::MetricSnapshot* Find(std::string_view name) const;
};

/// Fixed-capacity ring of immutable samples. One writer (the sampler),
/// any number of readers: slots are swappable shared_ptrs
/// (AtomicSharedPtr — a per-slot micro-mutex held only for the pointer
/// copy) and the head index is a monotone counter, so a reader sees
/// either the old or the new sample in a slot, never a torn one.
class MetricsSnapshotRing {
 public:
  explicit MetricsSnapshotRing(size_t capacity);

  void Push(std::shared_ptr<const MetricsSample> sample);

  /// The most recently pushed sample, or null when empty.
  std::shared_ptr<const MetricsSample> Newest() const;

  /// The newest sample at least `age_seconds` older than the newest one
  /// (the window anchor): the window [anchor, newest] then covers at
  /// least the asked-for age, as closely as the ring's resolution allows.
  /// Falls back to the oldest retained sample when nothing is old enough;
  /// null when the ring holds fewer than two samples.
  std::shared_ptr<const MetricsSample> WindowAnchor(double age_seconds) const;

  size_t capacity() const { return capacity_; }
  /// Samples currently retained (caps at capacity()).
  size_t size() const;

 private:
  const size_t capacity_;
  std::vector<AtomicSharedPtr<const MetricsSample>> slots_;
  std::atomic<uint64_t> pushed_{0};  ///< total pushes; head = pushed_ - 1
};

/// One metric's view over a window: counters as rates, gauges as their
/// newest value, histograms as the delta distribution's percentiles.
struct WindowedMetric {
  std::string name;
  MetricsRegistry::MetricKind kind = MetricsRegistry::MetricKind::kCounter;
  double rate_per_second = 0.0;  ///< counter delta / window seconds
  double gauge_value = 0.0;      ///< newest value (gauges)
  uint64_t delta_count = 0;      ///< histogram observations in the window
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  ///< window-local percentiles
};

/// A whole-registry window. `window_seconds` is the actual span between
/// the two samples (it can exceed the asked-for window by up to one
/// sampling interval, and undershoots only when the ring is young).
struct WindowedView {
  double window_seconds = 0.0;
  std::vector<WindowedMetric> metrics;  ///< name-sorted

  const WindowedMetric* Find(std::string_view name) const;
};

/// Diffs two samples into a windowed view. Metrics present only in
/// `newer` (registered mid-window) are rated over the full window;
/// negative deltas (a Reset between samples) clamp to zero.
WindowedView ComputeWindow(const MetricsSample& older,
                           const MetricsSample& newer);

struct TelemetryOptions {
  /// Seconds between registry snapshots.
  double sample_interval_seconds = 1.0;
  /// Samples retained; capacity × interval bounds the largest window
  /// (default ≈ 17 minutes at 1s, covering the 15m window with slack).
  size_t ring_capacity = 1024;
};

/// Owns the sampling thread and the ring. Start/Stop are idempotent and
/// Stop is safe under concurrent callers (exactly one joins the
/// sampler thread; later callers return without waiting for it);
/// SampleNow is exposed so tests (and the CLI) can sample synchronously
/// without a thread.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetryOptions options = {},
                            const MetricsRegistry* registry = nullptr);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void Start();
  void Stop();

  /// Takes one snapshot immediately and pushes it into the ring.
  std::shared_ptr<const MetricsSample> SampleNow();

  std::shared_ptr<const MetricsSample> Newest() const;

  /// The windowed view covering (approximately) the last
  /// `window_seconds`. Empty view (window_seconds == 0) until the ring
  /// holds two samples.
  WindowedView Window(double window_seconds) const;

  /// Seconds since this sampler was constructed (the serving uptime).
  double UptimeSeconds() const;

  const TelemetryOptions& options() const { return options_; }

 private:
  void SamplerLoop();

  const TelemetryOptions options_;
  const MetricsRegistry* registry_;  ///< defaults to the global registry
  MetricsSnapshotRing ring_;
  const double start_monotonic_;

  std::mutex mutex_;
  std::condition_variable wake_;
  bool running_ = false;  ///< guarded by mutex_
  bool stop_ = false;     ///< guarded by mutex_
  std::thread thread_;
};

/// Which retention ring a completed request landed in.
enum class TraceCategory : uint8_t {
  kRecent = 0,    ///< healthy + fast, retained because it was sampled
  kSlow = 1,      ///< over the slow threshold (keeps the N slowest)
  kDegraded = 2,  ///< served degraded (matcher dropped / deadline)
  kError = 3,     ///< pipeline returned non-OK
  kShed = 4,      ///< refused by admission (or cancelled by drain)
};

/// Stable lowercase name ("recent", "slow", "degraded", "error", "shed").
const char* TraceCategoryName(TraceCategory category);

/// One retained request. `spans` is filled only for requests that carried
/// a live SearchTrace (`sampled`); interesting outcomes are retained
/// metadata-only otherwise.
struct RetainedTrace {
  uint64_t timestamp_micros = 0;
  uint64_t fingerprint = 0;
  TraceCategory category = TraceCategory::kRecent;
  std::string outcome;  ///< AuditOutcomeName vocabulary ("ok", "shed_*", ...)
  double total_seconds = 0.0;
  bool cache_hit = false;
  bool sampled = false;
  /// Fleet-wide request id (DESIGN.md §15) — the join key `schemr trace`
  /// uses to stitch coordinator hop journals to replica traces. Empty
  /// for requests that entered below the HTTP layer.
  std::string request_id;
  /// SearchTrace::ToString() captured at retention time (multi-line).
  /// The coordinator reuses this for its hop journal (one line per
  /// backend attempt).
  std::string spans;
};

struct TraceRetentionOptions {
  /// Trace one request in every N (deterministic). 0 disables sampling;
  /// interesting outcomes are still retained metadata-only.
  uint32_t sample_every_n = 16;
  /// Per-category ring bound.
  size_t ring_capacity = 32;
  /// At or above this total latency a request is classified slow.
  double slow_threshold_seconds = 0.25;
};

/// Thread-safe bounded retention of completed-request traces. The lock is
/// taken once per retained offer (comparable to the audit log's append
/// mutex); ShouldSample is a single relaxed fetch_add.
class TraceRetention {
 public:
  explicit TraceRetention(TraceRetentionOptions options = {});

  /// True when the caller should attach a SearchTrace to this request.
  bool ShouldSample();

  /// Offers one completed request. Classifies it (error/shed/degraded by
  /// outcome, slow by latency, recent otherwise) and retains it unless it
  /// is a healthy fast request that carried no trace. The slow ring keeps
  /// the slowest entries seen, not the newest.
  void Retain(RetainedTrace record);

  /// Every retained trace, grouped by category (rings in insertion
  /// order; the slow ring slowest-first).
  std::vector<RetainedTrace> Snapshot() const;

  struct Stats {
    uint64_t offered = 0;   ///< Retain calls
    uint64_t sampled = 0;   ///< requests that carried a trace
    uint64_t retained = 0;  ///< offers that entered a ring
  };
  Stats GetStats() const;

  /// The /tracez body: {"stats": {...}, "traces": [...]}.
  std::string ToJson() const;

  const TraceRetentionOptions& options() const { return options_; }

 private:
  /// Appends to a FIFO ring, evicting the oldest beyond capacity.
  void PushBounded(std::deque<RetainedTrace>* ring, RetainedTrace record);

  const TraceRetentionOptions options_;
  std::atomic<uint64_t> sample_counter_{0};

  mutable std::mutex mutex_;
  std::deque<RetainedTrace> recent_;
  std::deque<RetainedTrace> degraded_;
  std::deque<RetainedTrace> error_;
  std::deque<RetainedTrace> shed_;
  /// Kept sorted slowest-first; admission replaces the fastest entry.
  std::vector<RetainedTrace> slow_;
  uint64_t offered_ = 0;
  uint64_t sampled_ = 0;
  uint64_t retained_ = 0;
};

/// Appends `text` to `*out` with JSON string escaping (quote, backslash,
/// control characters). The one JSON string escaper: the emitters below,
/// /tracez, and the metrics JSON exposition all use it.
void AppendJsonEscaped(std::string* out, std::string_view text);

// --- Flat-JSON emitters ------------------------------------------------------
// The vocabulary every /statusz body is written in: objects, numbers,
// strings, booleans and nothing else, which is exactly what obs/replay.h's
// ParseBenchJson reads, so `schemr top` and `schemr checkjson` need no real
// JSON parser. Each call appends one `"key":value` member to `*out`, which
// must already hold an open object (at least its '{'); a comma goes first
// unless the member opens the object.

/// Appends the member key (escaped) and its ':'; the caller writes the
/// value, e.g. a nested '{'.
void JsonKey(std::string* out, std::string_view key);
/// Numbers print as %.9g, so counters stay exact up to 999 999 999. NaN
/// and infinities, which ParseBenchJson cannot read, print as 0.
void JsonNum(std::string* out, std::string_view key, double value);
/// The value is always escaped.
void JsonStr(std::string* out, std::string_view key, std::string_view value);
void JsonBool(std::string* out, std::string_view key, bool value);

}  // namespace schemr

#endif  // SCHEMR_OBS_TELEMETRY_H_
