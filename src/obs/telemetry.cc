#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace schemr {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TelemetryMetrics {
  Counter* samples;
  Counter* traces_sampled;
  Counter* traces_retained;

  static const TelemetryMetrics& Get() {
    static const TelemetryMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new TelemetryMetrics{
          r.GetCounter("schemr_telemetry_samples_total",
                       "Registry snapshots taken by the telemetry sampler."),
          r.GetCounter("schemr_traces_sampled_total",
                       "Requests that carried an always-on sampled trace."),
          r.GetCounter("schemr_traces_retained_total",
                       "Completed requests retained by a trace ring."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

const MetricsRegistry::MetricSnapshot* MetricsSample::Find(
    std::string_view name) const {
  // Collect() returns name-sorted snapshots, so binary search applies.
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricsRegistry::MetricSnapshot& m, std::string_view n) {
        return m.name < n;
      });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

MetricsSnapshotRing::MetricsSnapshotRing(size_t capacity)
    : capacity_(std::max<size_t>(2, capacity)), slots_(capacity_) {}

void MetricsSnapshotRing::Push(std::shared_ptr<const MetricsSample> sample) {
  const uint64_t index = pushed_.load(std::memory_order_relaxed);
  slots_[index % capacity_].store(std::move(sample));
  // Publish after the slot write: a reader that sees the new count finds
  // the new sample in its slot.
  pushed_.store(index + 1, std::memory_order_release);
}

std::shared_ptr<const MetricsSample> MetricsSnapshotRing::Newest() const {
  const uint64_t count = pushed_.load(std::memory_order_acquire);
  if (count == 0) return nullptr;
  return slots_[(count - 1) % capacity_].load();
}

std::shared_ptr<const MetricsSample> MetricsSnapshotRing::WindowAnchor(
    double age_seconds) const {
  const uint64_t count = pushed_.load(std::memory_order_acquire);
  if (count < 2) return nullptr;
  auto newest = slots_[(count - 1) % capacity_].load();
  if (newest == nullptr) return nullptr;
  const double anchor_time = newest->monotonic_seconds - age_seconds;
  // Scan oldest→newest; the first sample at or under the anchor age is
  // the closest one that still covers the window. A concurrent Push can
  // overwrite the oldest slot mid-scan; a null or newer-than-expected
  // sample there is simply skipped (the window just shrinks by a slot).
  const uint64_t oldest = count > capacity_ ? count - capacity_ : 0;
  std::shared_ptr<const MetricsSample> fallback;
  for (uint64_t i = oldest; i + 1 < count; ++i) {
    auto sample = slots_[i % capacity_].load();
    if (sample == nullptr || sample == newest) continue;
    if (fallback == nullptr ||
        sample->monotonic_seconds < fallback->monotonic_seconds) {
      fallback = sample;
    }
    if (sample->monotonic_seconds >= anchor_time) return sample;
  }
  return fallback;
}

size_t MetricsSnapshotRing::size() const {
  const uint64_t count = pushed_.load(std::memory_order_acquire);
  return static_cast<size_t>(std::min<uint64_t>(count, capacity_));
}

const WindowedMetric* WindowedView::Find(std::string_view name) const {
  auto it = std::lower_bound(metrics.begin(), metrics.end(), name,
                             [](const WindowedMetric& m, std::string_view n) {
                               return m.name < n;
                             });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

WindowedView ComputeWindow(const MetricsSample& older,
                           const MetricsSample& newer) {
  WindowedView view;
  view.window_seconds =
      std::max(1e-9, newer.monotonic_seconds - older.monotonic_seconds);
  view.metrics.reserve(newer.metrics.size());
  for (const MetricsRegistry::MetricSnapshot& now : newer.metrics) {
    const MetricsRegistry::MetricSnapshot* then = older.Find(now.name);
    WindowedMetric m;
    m.name = now.name;
    m.kind = now.kind;
    switch (now.kind) {
      case MetricsRegistry::MetricKind::kCounter: {
        const uint64_t before = then != nullptr ? then->counter_value : 0;
        const uint64_t delta =
            now.counter_value > before ? now.counter_value - before : 0;
        m.rate_per_second = static_cast<double>(delta) / view.window_seconds;
        break;
      }
      case MetricsRegistry::MetricKind::kGauge:
        m.gauge_value = now.gauge_value;
        break;
      case MetricsRegistry::MetricKind::kHistogram: {
        HistogramSnapshot delta;
        delta.bounds = now.histogram.bounds;
        delta.buckets.resize(now.histogram.buckets.size(), 0);
        const bool comparable =
            then != nullptr &&
            then->histogram.buckets.size() == now.histogram.buckets.size();
        for (size_t i = 0; i < now.histogram.buckets.size(); ++i) {
          const uint64_t before = comparable ? then->histogram.buckets[i] : 0;
          delta.buckets[i] = now.histogram.buckets[i] > before
                                 ? now.histogram.buckets[i] - before
                                 : 0;
          delta.count += delta.buckets[i];
        }
        m.delta_count = delta.count;
        m.rate_per_second =
            static_cast<double>(delta.count) / view.window_seconds;
        if (delta.count > 0) {
          m.p50 = delta.Quantile(0.50);
          m.p95 = delta.Quantile(0.95);
          m.p99 = delta.Quantile(0.99);
        }
        break;
      }
    }
    view.metrics.push_back(std::move(m));
  }
  return view;
}

TelemetrySampler::TelemetrySampler(TelemetryOptions options,
                                   const MetricsRegistry* registry)
    : options_(options),
      registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      ring_(options.ring_capacity),
      start_monotonic_(MonotonicSeconds()) {}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread(&TelemetrySampler::SamplerLoop, this);
}

void TelemetrySampler::Stop() {
  // Claim the thread handle under the lock so concurrent Stop() calls
  // race for it; exactly one caller joins, the rest return immediately.
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    worker = std::move(thread_);
  }
  wake_.notify_all();
  worker.join();
}

std::shared_ptr<const MetricsSample> TelemetrySampler::SampleNow() {
  auto sample = std::make_shared<MetricsSample>();
  sample->monotonic_seconds = MonotonicSeconds();
  sample->metrics = registry_->Collect();
  ring_.Push(sample);
  TelemetryMetrics::Get().samples->Increment();
  return sample;
}

std::shared_ptr<const MetricsSample> TelemetrySampler::Newest() const {
  return ring_.Newest();
}

WindowedView TelemetrySampler::Window(double window_seconds) const {
  auto newest = ring_.Newest();
  auto anchor = ring_.WindowAnchor(window_seconds);
  if (newest == nullptr || anchor == nullptr || anchor == newest) return {};
  // A push racing the two loads above can hand back an anchor taken after
  // `newest`; an inverted window is noise, not data.
  if (anchor->monotonic_seconds >= newest->monotonic_seconds) return {};
  return ComputeWindow(*anchor, *newest);
}

double TelemetrySampler::UptimeSeconds() const {
  return MonotonicSeconds() - start_monotonic_;
}

void TelemetrySampler::SamplerLoop() {
  const auto interval = std::chrono::duration<double>(
      std::max(0.01, options_.sample_interval_seconds));
  SampleNow();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (wake_.wait_for(lock, interval, [this] { return stop_; })) break;
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kRecent:
      return "recent";
    case TraceCategory::kSlow:
      return "slow";
    case TraceCategory::kDegraded:
      return "degraded";
    case TraceCategory::kError:
      return "error";
    case TraceCategory::kShed:
      return "shed";
  }
  return "unknown";
}

TraceRetention::TraceRetention(TraceRetentionOptions options)
    : options_(options) {}

bool TraceRetention::ShouldSample() {
  if (options_.sample_every_n == 0) return false;
  const uint64_t n =
      sample_counter_.fetch_add(1, std::memory_order_relaxed);
  const bool sample = n % options_.sample_every_n == 0;
  if (sample) TelemetryMetrics::Get().traces_sampled->Increment();
  return sample;
}

void TraceRetention::PushBounded(std::deque<RetainedTrace>* ring,
                                 RetainedTrace record) {
  ring->push_back(std::move(record));
  while (ring->size() > options_.ring_capacity) ring->pop_front();
  ++retained_;
  TelemetryMetrics::Get().traces_retained->Increment();
}

void TraceRetention::Retain(RetainedTrace record) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++offered_;
  if (record.sampled) ++sampled_;

  if (record.outcome == "error") {
    record.category = TraceCategory::kError;
    PushBounded(&error_, std::move(record));
  } else if (record.outcome.rfind("shed", 0) == 0 ||
             record.outcome == "cancelled") {
    record.category = TraceCategory::kShed;
    PushBounded(&shed_, std::move(record));
  } else if (record.outcome == "degraded") {
    record.category = TraceCategory::kDegraded;
    PushBounded(&degraded_, std::move(record));
  } else if (record.total_seconds >= options_.slow_threshold_seconds) {
    // Tail preference: the ring keeps the slowest requests seen, not the
    // newest — a burst of merely-threshold-slow requests cannot flush the
    // genuinely pathological one.
    record.category = TraceCategory::kSlow;
    const auto slower = [](const RetainedTrace& a, const RetainedTrace& b) {
      return a.total_seconds > b.total_seconds;
    };
    if (slow_.size() < options_.ring_capacity) {
      slow_.push_back(std::move(record));
      std::sort(slow_.begin(), slow_.end(), slower);
      ++retained_;
      TelemetryMetrics::Get().traces_retained->Increment();
    } else if (!slow_.empty() &&
               record.total_seconds > slow_.back().total_seconds) {
      slow_.back() = std::move(record);
      std::sort(slow_.begin(), slow_.end(), slower);
      ++retained_;
      TelemetryMetrics::Get().traces_retained->Increment();
    }
  } else if (record.sampled) {
    record.category = TraceCategory::kRecent;
    PushBounded(&recent_, std::move(record));
  }
  // else: healthy, fast, untraced — nothing worth keeping.
}

std::vector<RetainedTrace> TraceRetention::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RetainedTrace> all;
  all.reserve(error_.size() + shed_.size() + degraded_.size() + slow_.size() +
              recent_.size());
  for (const auto& r : error_) all.push_back(r);
  for (const auto& r : shed_) all.push_back(r);
  for (const auto& r : degraded_) all.push_back(r);
  for (const auto& r : slow_) all.push_back(r);
  for (const auto& r : recent_) all.push_back(r);
  return all;
}

TraceRetention::Stats TraceRetention::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{offered_, sampled_, retained_};
}

std::string TraceRetention::ToJson() const {
  const Stats stats = GetStats();
  const std::vector<RetainedTrace> traces = Snapshot();
  std::string out = "{\n  \"stats\": {";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"offered\": %llu, \"sampled\": %llu, \"retained\": %llu, "
                "\"sample_every_n\": %u}",
                static_cast<unsigned long long>(stats.offered),
                static_cast<unsigned long long>(stats.sampled),
                static_cast<unsigned long long>(stats.retained),
                options_.sample_every_n);
  out += buf;
  out += ",\n  \"traces\": [";
  for (size_t i = 0; i < traces.size(); ++i) {
    const RetainedTrace& t = traces[i];
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof(buf),
                  "    {\"category\": \"%s\", \"outcome\": \"",
                  TraceCategoryName(t.category));
    out += buf;
    AppendJsonEscaped(&out, t.outcome);
    std::snprintf(buf, sizeof(buf),
                  "\", \"timestamp_micros\": %llu, \"fingerprint\": "
                  "\"%016llx\", \"total_ms\": %.3f, \"cache_hit\": %s, "
                  "\"sampled\": %s, \"request_id\": \"",
                  static_cast<unsigned long long>(t.timestamp_micros),
                  static_cast<unsigned long long>(t.fingerprint),
                  t.total_seconds * 1e3, t.cache_hit ? "true" : "false",
                  t.sampled ? "true" : "false");
    out += buf;
    AppendJsonEscaped(&out, t.request_id);
    out += "\", \"spans\": \"";
    AppendJsonEscaped(&out, t.spans);
    out += "\"}";
  }
  out += traces.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void JsonKey(std::string* out, std::string_view key) {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  AppendJsonEscaped(out, key);
  *out += "\":";
}

void JsonNum(std::string* out, std::string_view key, double value) {
  JsonKey(out, key);
  if (!std::isfinite(value)) value = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  *out += buf;
}

void JsonStr(std::string* out, std::string_view key, std::string_view value) {
  JsonKey(out, key);
  out->push_back('"');
  AppendJsonEscaped(out, value);
  out->push_back('"');
}

void JsonBool(std::string* out, std::string_view key, bool value) {
  JsonKey(out, key);
  *out += value ? "true" : "false";
}

}  // namespace schemr
