// Metric exposition formats.
//
// Renders a MetricsRegistry as Prometheus text exposition format
// (https://prometheus.io/docs/instrumenting/exposition_formats/) or as a
// JSON object, for scraping endpoints and the CLI `stats` subcommand.

#ifndef SCHEMR_OBS_EXPOSITION_H_
#define SCHEMR_OBS_EXPOSITION_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace schemr {

/// Prometheus text format, version 0.0.4: `# HELP` / `# TYPE` comment
/// lines followed by samples; histograms expand to `_bucket{le="..."}`
/// (cumulative), `_sum` and `_count` series.
std::string ToPrometheusText(const MetricsRegistry& registry);

/// Same emitter over an already-collected (or synthesized) snapshot
/// list. The federation layer (obs/federation.h) renders merged fleet
/// series through this, so federated output is format-identical to a
/// registry's own.
std::string ToPrometheusText(
    const std::vector<MetricsRegistry::MetricSnapshot>& metrics);

/// JSON object keyed by metric name; counters/gauges map to numbers,
/// histograms to {count, sum, p50, p95, p99, buckets: [{le, count}...]}.
std::string ToJson(const MetricsRegistry& registry);

/// Structural conformance check over a text-exposition body (what a
/// Prometheus scraper would reject). Enforced rules:
///   - every sample belongs to a family announced by a preceding
///     `# TYPE` line (histogram `_bucket`/`_sum`/`_count` series resolve
///     to their base family), and a family's TYPE appears only once;
///   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names match
///     [a-zA-Z_][a-zA-Z0-9_]*, and label values are double-quoted with
///     only \\ \" \n escapes;
///   - `# HELP` text escapes backslash and newline;
///   - sample values parse as numbers (+Inf/-Inf/NaN allowed); counter
///     samples are finite, non-negative integers (this registry's
///     counters are uint64);
///   - each histogram family's buckets are cumulative (non-decreasing in
///     order of appearance), end in le="+Inf", carry a `_sum`, and a
///     `_count` equal to the +Inf bucket.
/// InvalidArgument names the first offending line; used by the CI smoke
/// check (`schemr checkmetrics`) and the exposition tests.
Status CheckPrometheusText(std::string_view text);

// --- Reading the text format ------------------------------------------------
// The checker's own readers, shared with the federation parser
// (obs/federation.h) so both read a scrape the same way.

/// One sample line: `name[{labels}] value [timestamp]`.
struct ExpositionSample {
  std::string_view name;
  std::string le;         ///< the `le` label's unescaped value; empty if none
  size_t labels = 0;      ///< how many labels the line carries
  std::string_view text;  ///< the value as written
  double value = 0.0;     ///< `text` parsed; +Inf/-Inf/NaN allowed
};

/// Parses one sample line: a valid name, well-formed labels, a number
/// and an optional timestamp. InvalidArgument names the defect.
Status ParseExpositionSample(std::string_view line, ExpositionSample* sample);

/// A C double, or the spec's +Inf / -Inf / NaN.
bool ParseSampleValue(std::string_view token, double* value);

/// A counter's value: finite, non-negative and integral (this registry's
/// counters are uint64); exact for plain digits past 2^53.
bool ParseCounterValue(const ExpositionSample& sample, uint64_t* value);

/// Undoes `# HELP` escaping (`\\` and `\n`); InvalidArgument on any other.
Status UnescapeHelp(std::string_view text, std::string* out);

/// "foo_bucket" -> "foo", returning "bucket" (or "sum", "count"); other
/// names come back whole with an empty suffix.
std::string_view SplitHistogramSuffix(std::string_view name,
                                      std::string_view* base);

}  // namespace schemr

#endif  // SCHEMR_OBS_EXPOSITION_H_
