#include "obs/federation.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/exposition.h"

namespace schemr {

namespace {

using MetricKind = MetricsRegistry::MetricKind;
using MetricSnapshot = MetricsRegistry::MetricSnapshot;

/// In-flight histogram assembly: buckets stay cumulative until the whole
/// scrape is parsed (the emitter writes them cumulative).
struct HistogramBuild {
  std::vector<double> bounds;
  std::vector<uint64_t> cumulative;
  bool saw_inf = false;
  bool saw_sum = false;
  bool saw_count = false;
  double sum = 0.0;
  uint64_t count = 0;
};

}  // namespace

Result<std::vector<MetricSnapshot>> ParsePrometheusSnapshots(
    std::string_view text) {
  std::map<std::string, MetricKind> kinds;
  std::map<std::string, std::string> helps;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramBuild> histograms;

  size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.empty()) continue;
    const auto bad = [line_no](const std::string& what) {
      return Status::InvalidArgument("scrape line " + std::to_string(line_no) +
                                     ": " + what);
    };
    if (line[0] == '#') {
      // "# TYPE name kind" / "# HELP name text"; other comments ignored.
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      if (!is_type && !is_help) continue;
      std::string_view rest = line.substr(7);
      const size_t space = rest.find(' ');
      if (space == std::string_view::npos || space == 0) {
        return bad("malformed comment line");
      }
      const std::string name(rest.substr(0, space));
      std::string_view value = rest.substr(space + 1);
      if (is_help) {
        Status unescaped = UnescapeHelp(value, &helps[name]);
        if (!unescaped.ok()) return bad(unescaped.message());
        continue;
      }
      MetricKind kind;
      if (value == "counter") {
        kind = MetricKind::kCounter;
      } else if (value == "gauge") {
        kind = MetricKind::kGauge;
      } else if (value == "histogram") {
        kind = MetricKind::kHistogram;
      } else {
        // Untyped / summary families are not schemr's dialect; skip the
        // family (its samples will be skipped as unannounced too).
        continue;
      }
      kinds[name] = kind;
      continue;
    }

    // Sample: name[{le="bound"}] value, read as the checker reads it.
    ExpositionSample sample;
    if (Status parsed = ParseExpositionSample(line, &sample); !parsed.ok()) {
      return bad(parsed.message());
    }
    if (sample.labels > (sample.le.empty() ? 0 : 1)) {
      continue;  // labeled series outside the histogram dialect: not ours
    }
    const std::string_view sample_name = sample.name;
    std::string_view base;
    const std::string_view suffix = SplitHistogramSuffix(sample_name, &base);

    const std::string base_name(base);
    const auto kind_it = kinds.find(base_name);
    if (suffix.empty() || kind_it == kinds.end() ||
        kind_it->second != MetricKind::kHistogram) {
      // Plain counter/gauge sample (a histogram family's name never
      // appears bare in this dialect).
      const auto plain_it = kinds.find(std::string(sample_name));
      if (plain_it == kinds.end()) continue;  // unannounced: skip
      if (plain_it->second == MetricKind::kCounter) {
        uint64_t v = 0;
        if (!ParseCounterValue(sample, &v)) return bad("bad counter value");
        counters[std::string(sample_name)] = v;
      } else if (plain_it->second == MetricKind::kGauge) {
        gauges[std::string(sample_name)] = sample.value;
      }
      continue;
    }

    HistogramBuild& build = histograms[base_name];
    if (suffix == "bucket") {
      uint64_t v = 0;
      if (!ParseCounterValue(sample, &v)) return bad("bad bucket value");
      if (sample.le == "+Inf") {
        build.saw_inf = true;
      } else {
        double bound = 0.0;
        if (!ParseSampleValue(sample.le, &bound)) return bad("bad le bound");
        if (build.saw_inf) return bad("bucket after +Inf");
        build.bounds.push_back(bound);
      }
      build.cumulative.push_back(v);
    } else if (suffix == "sum") {
      build.sum = sample.value;
      build.saw_sum = true;
    } else {
      if (!ParseCounterValue(sample, &build.count)) {
        return bad("bad histogram count");
      }
      build.saw_count = true;
    }
  }

  std::vector<MetricSnapshot> out;
  for (const auto& [name, kind] : kinds) {
    MetricSnapshot m;
    m.name = name;
    m.kind = kind;
    const auto help_it = helps.find(name);
    if (help_it != helps.end()) m.help = help_it->second;
    switch (kind) {
      case MetricKind::kCounter: {
        const auto it = counters.find(name);
        if (it == counters.end()) continue;
        m.counter_value = it->second;
        break;
      }
      case MetricKind::kGauge: {
        const auto it = gauges.find(name);
        if (it == gauges.end()) continue;
        m.gauge_value = it->second;
        break;
      }
      case MetricKind::kHistogram: {
        const auto it = histograms.find(name);
        if (it == histograms.end()) continue;
        const HistogramBuild& build = it->second;
        if (!build.saw_inf || !build.saw_sum || !build.saw_count ||
            build.cumulative.size() != build.bounds.size() + 1) {
          return Status::InvalidArgument("incomplete histogram family " +
                                         name);
        }
        // The checker's rule too: a family whose _count disagrees with
        // its +Inf bucket would re-emit as an exposition it rejects.
        if (build.count != build.cumulative.back()) {
          return Status::InvalidArgument(
              "histogram " + name + " _count disagrees with its +Inf bucket");
        }
        m.histogram.bounds = build.bounds;
        m.histogram.buckets.resize(build.cumulative.size());
        uint64_t previous = 0;
        for (size_t i = 0; i < build.cumulative.size(); ++i) {
          if (build.cumulative[i] < previous) {
            return Status::InvalidArgument("non-cumulative buckets in " +
                                           name);
          }
          m.histogram.buckets[i] = build.cumulative[i] - previous;
          previous = build.cumulative[i];
        }
        m.histogram.sum = build.sum;
        m.histogram.count = build.count;
        break;
      }
    }
    out.push_back(std::move(m));
  }
  // std::map iteration already yields name order; keep the invariant
  // explicit for callers that splice lists together.
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<MetricSnapshot> MergeMetricSnapshots(
    const std::vector<std::vector<MetricSnapshot>>& scrapes) {
  std::map<std::string, MetricSnapshot> merged;
  std::set<std::string> dropped;  ///< kind or bucket-bound disagreement
  for (const std::vector<MetricSnapshot>& scrape : scrapes) {
    for (const MetricSnapshot& m : scrape) {
      if (dropped.count(m.name) > 0) continue;
      auto [it, inserted] = merged.emplace(m.name, m);
      if (inserted) continue;
      MetricSnapshot& into = it->second;
      if (into.kind != m.kind ||
          (m.kind == MetricKind::kHistogram &&
           into.histogram.bounds != m.histogram.bounds)) {
        dropped.insert(m.name);
        merged.erase(it);
        continue;
      }
      switch (m.kind) {
        case MetricKind::kCounter:
          into.counter_value += m.counter_value;
          break;
        case MetricKind::kGauge:
          into.gauge_value += m.gauge_value;
          break;
        case MetricKind::kHistogram:
          for (size_t i = 0; i < into.histogram.buckets.size(); ++i) {
            into.histogram.buckets[i] += m.histogram.buckets[i];
          }
          into.histogram.count += m.histogram.count;
          into.histogram.sum += m.histogram.sum;
          break;
      }
    }
  }
  std::vector<MetricSnapshot> out;
  out.reserve(merged.size());
  for (auto& [name, m] : merged) out.push_back(std::move(m));
  return out;
}

std::vector<MetricSnapshot> RenameForFleet(
    std::vector<MetricSnapshot> metrics) {
  for (MetricSnapshot& m : metrics) {
    constexpr std::string_view kPrefix = "schemr_";
    if (m.name.rfind(kPrefix, 0) == 0) {
      m.name = "schemr_fleet_" + m.name.substr(kPrefix.size());
    } else {
      m.name = "schemr_fleet_" + m.name;
    }
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return metrics;
}

}  // namespace schemr
