// Metrics federation for the replica fleet (DESIGN.md §15).
//
// The coordinator's /metrics merge mode scrapes each ready replica's
// Prometheus text exposition, merges the scrapes into one fleet-wide
// snapshot list, and re-emits it (renamed `schemr_fleet_*`) through the
// same emitter the per-process registries use. Merge semantics:
//
//   * counters merge by sum — each replica's counter is an independent
//     event count, so the fleet total is exact;
//   * histograms merge bucket-wise — every schemr process builds its
//     latency histograms from Histogram::DefaultLatencyBounds(), so
//     adding per-bucket counts (plus _sum/_count) is exact, and fleet
//     percentiles derived from the merged histogram are as accurate as
//     any single replica's. A family whose bounds disagree across
//     scrapes (version skew mid-rollout) is dropped from the merge
//     rather than summed wrongly;
//   * gauges merge by sum — fleet gauges read as totals across replicas
//     (in-flight requests, live segments), which is the aggregation
//     every schemr gauge supports.
//
// A scrape that fails to parse is the caller's problem (skip the dead
// replica and merge the rest); this layer never sees the network.

#ifndef SCHEMR_OBS_FEDERATION_H_
#define SCHEMR_OBS_FEDERATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace schemr {

/// Parses one Prometheus text-exposition body (the dialect
/// ToPrometheusText emits: unlabeled counters/gauges, histograms with a
/// single `le` label) back into snapshot structs, name-sorted. Lines are
/// read with CheckPrometheusText's own readers (obs/exposition.h), and
/// `# HELP` text is unescaped. Histogram buckets are de-cumulated;
/// families announced by `# TYPE` but missing samples are dropped, as
/// are unannounced and otherwise-labeled series. InvalidArgument on
/// unparseable lines, a signed or fractional counter, bucket or
/// `_count`, and a `_count` that disagrees with its `+Inf` bucket.
Result<std::vector<MetricsRegistry::MetricSnapshot>> ParsePrometheusSnapshots(
    std::string_view text);

/// Merges N scrapes into one snapshot list (name-sorted). Counters and
/// gauges sum; histograms add bucket-wise when bounds match across every
/// scrape and are dropped from the result otherwise. Help text comes
/// from the first scrape that carries the family.
std::vector<MetricsRegistry::MetricSnapshot> MergeMetricSnapshots(
    const std::vector<std::vector<MetricsRegistry::MetricSnapshot>>& scrapes);

/// Renames merged series for fleet exposition: `schemr_<x>` →
/// `schemr_fleet_<x>` (anything else gains the `schemr_fleet_` prefix
/// wholesale), so federated series never collide with the coordinator
/// process's own registry in one exposition body.
std::vector<MetricsRegistry::MetricSnapshot> RenameForFleet(
    std::vector<MetricsRegistry::MetricSnapshot> metrics);

}  // namespace schemr

#endif  // SCHEMR_OBS_FEDERATION_H_
