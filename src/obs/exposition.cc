#include "obs/exposition.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

#include "obs/telemetry.h"

namespace schemr {

namespace {

using MetricSnapshot = MetricsRegistry::MetricSnapshot;
using MetricKind = MetricsRegistry::MetricKind;

std::string FormatNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string ToPrometheusText(const MetricsRegistry& registry) {
  return ToPrometheusText(registry.Collect());
}

std::string ToPrometheusText(
    const std::vector<MetricsRegistry::MetricSnapshot>& metrics) {
  std::string out;
  char buf[160];
  for (const MetricSnapshot& m : metrics) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " ";
      // Prometheus escapes backslash and newline in help text.
      for (char c : m.help) {
        if (c == '\\') {
          out += "\\\\";
        } else if (c == '\n') {
          out += "\\n";
        } else {
          out += c;
        }
      }
      out += '\n';
    }
    out += "# TYPE " + m.name + " " + KindName(m.kind) + "\n";
    switch (m.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", m.name.c_str(),
                      m.counter_value);
        out += buf;
        break;
      case MetricKind::kGauge:
        out += m.name + " " + FormatNumber(m.gauge_value) + "\n";
        break;
      case MetricKind::kHistogram: {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.histogram.buckets.size(); ++i) {
          cumulative += m.histogram.buckets[i];
          const std::string le = i < m.histogram.bounds.size()
                                     ? FormatNumber(m.histogram.bounds[i])
                                     : "+Inf";
          std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                        m.name.c_str(), le.c_str(), cumulative);
          out += buf;
        }
        out += m.name + "_sum " + FormatNumber(m.histogram.sum) + "\n";
        std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n",
                      m.name.c_str(), m.histogram.count);
        out += buf;
        break;
      }
    }
  }
  return out;
}

std::string ToJson(const MetricsRegistry& registry) {
  std::string out = "{";
  bool first = true;
  char buf[160];
  for (const MetricSnapshot& m : registry.Collect()) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"";
    AppendJsonEscaped(&out, m.name);
    out += "\": ";
    switch (m.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), "%" PRIu64, m.counter_value);
        out += buf;
        break;
      case MetricKind::kGauge:
        out += FormatNumber(m.gauge_value);
        break;
      case MetricKind::kHistogram: {
        std::snprintf(buf, sizeof(buf), "{\"count\": %" PRIu64 ", \"sum\": %s",
                      m.histogram.count,
                      FormatNumber(m.histogram.sum).c_str());
        out += buf;
        out += ", \"p50\": " + FormatNumber(m.histogram.Quantile(0.50));
        out += ", \"p95\": " + FormatNumber(m.histogram.Quantile(0.95));
        out += ", \"p99\": " + FormatNumber(m.histogram.Quantile(0.99));
        out += ", \"buckets\": [";
        for (size_t i = 0; i < m.histogram.buckets.size(); ++i) {
          if (i > 0) out += ", ";
          const std::string le = i < m.histogram.bounds.size()
                                     ? FormatNumber(m.histogram.bounds[i])
                                     : "\"+Inf\"";
          std::snprintf(buf, sizeof(buf), "{\"le\": %s, \"count\": %" PRIu64 "}",
                        le.c_str(), m.histogram.buckets[i]);
          out += buf;
        }
        out += "]}";
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

namespace {

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool IsValidLabelName(std::string_view name) {
  return IsValidMetricName(name) && name.find(':') == std::string_view::npos;
}

/// Parses a sample value: a C double, or the spec's +Inf / -Inf / NaN.
bool ParseSampleValue(std::string_view token, double* value) {
  if (token == "+Inf" || token == "Inf") {
    *value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-Inf") {
    *value = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "NaN") {
    *value = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const std::string copy(token);
  char* end = nullptr;
  *value = std::strtod(copy.c_str(), &end);
  return end != nullptr && *end == '\0' && !copy.empty();
}

/// Parses `{key="value",...}` starting at text[pos] == '{'. Advances
/// *pos past the closing brace. Stores the `le` label's raw value if
/// present.
Status ParseLabels(std::string_view line, size_t* pos, std::string* le) {
  ++*pos;  // consume '{'
  bool first = true;
  while (*pos < line.size() && line[*pos] != '}') {
    if (!first) {
      if (line[*pos] != ',') {
        return Status::InvalidArgument("expected ',' between labels");
      }
      ++*pos;
      if (*pos < line.size() && line[*pos] == '}') break;  // trailing comma
    }
    first = false;
    const size_t eq = line.find('=', *pos);
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("label without '='");
    }
    const std::string_view name = line.substr(*pos, eq - *pos);
    if (!IsValidLabelName(name)) {
      return Status::InvalidArgument("bad label name '" + std::string(name) +
                                     "'");
    }
    *pos = eq + 1;
    if (*pos >= line.size() || line[*pos] != '"') {
      return Status::InvalidArgument("label value must be double-quoted");
    }
    ++*pos;
    std::string value;
    bool closed = false;
    while (*pos < line.size()) {
      const char c = line[*pos];
      if (c == '\\') {
        if (*pos + 1 >= line.size()) {
          return Status::InvalidArgument("dangling escape in label value");
        }
        const char esc = line[*pos + 1];
        if (esc != '\\' && esc != '"' && esc != 'n') {
          return Status::InvalidArgument(
              std::string("invalid label escape '\\") + esc + "'");
        }
        value += esc == 'n' ? '\n' : esc;
        *pos += 2;
        continue;
      }
      if (c == '"') {
        closed = true;
        ++*pos;
        break;
      }
      value += c;
      ++*pos;
    }
    if (!closed) {
      return Status::InvalidArgument("unterminated label value");
    }
    if (name == "le") *le = value;
  }
  if (*pos >= line.size() || line[*pos] != '}') {
    return Status::InvalidArgument("unterminated label set");
  }
  ++*pos;  // consume '}'
  return Status::OK();
}

/// Per-family bookkeeping accumulated while scanning samples.
struct FamilyState {
  std::string kind;  ///< from # TYPE; empty = none seen yet
  bool has_samples = false;
  // Histogram accumulation:
  double last_bucket = -1.0;      ///< previous bucket's cumulative value
  bool last_le_inf = false;       ///< most recent bucket was le="+Inf"
  bool saw_inf_bucket = false;
  double inf_bucket_value = 0.0;
  bool has_sum = false;
  bool has_count = false;
  double count_value = 0.0;
};

/// Strips a histogram-series suffix: "foo_bucket" -> "foo". Returns the
/// suffix ("bucket", "sum", "count") or empty.
std::string_view SplitHistogramSuffix(std::string_view name,
                                      std::string_view* base) {
  for (std::string_view suffix : {"_bucket", "_sum", "_count"}) {
    if (name.size() > suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      *base = name.substr(0, name.size() - suffix.size());
      return suffix.substr(1);
    }
  }
  *base = name;
  return {};
}

}  // namespace

Status CheckPrometheusText(std::string_view text) {
  std::map<std::string, FamilyState> families;
  size_t line_number = 0;
  size_t start = 0;
  auto fail = [&line_number](const std::string& message,
                             std::string_view line) {
    return Status::InvalidArgument(
        "exposition line " + std::to_string(line_number) + ": " + message +
        " in '" + std::string(line.substr(0, 120)) + "'");
  };
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      if (start == text.size()) break;
      end = text.size();
    }
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) {
          return fail("malformed # TYPE", line);
        }
        const std::string name(rest.substr(0, sp));
        const std::string_view kind = rest.substr(sp + 1);
        if (!IsValidMetricName(name)) {
          return fail("bad metric name in # TYPE", line);
        }
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          return fail("unknown metric kind '" + std::string(kind) + "'",
                      line);
        }
        FamilyState& family = families[name];
        if (!family.kind.empty()) {
          return fail("duplicate # TYPE for family '" + name + "'", line);
        }
        if (family.has_samples) {
          return fail("# TYPE after samples for family '" + name + "'",
                      line);
        }
        family.kind = std::string(kind);
      } else if (line.rfind("# HELP ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const size_t sp = rest.find(' ');
        const std::string_view name =
            sp == std::string_view::npos ? rest : rest.substr(0, sp);
        if (!IsValidMetricName(name)) {
          return fail("bad metric name in # HELP", line);
        }
        const std::string_view help =
            sp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sp + 1);
        for (size_t i = 0; i < help.size(); ++i) {
          if (help[i] != '\\') continue;
          if (i + 1 >= help.size() ||
              (help[i + 1] != '\\' && help[i + 1] != 'n')) {
            return fail("invalid escape in # HELP text", line);
          }
          ++i;
        }
      }
      continue;  // other comments are free-form
    }

    // A sample: name[{labels}] value [timestamp]
    size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    const std::string_view name = line.substr(0, pos);
    if (!IsValidMetricName(name)) {
      return fail("bad metric name", line);
    }
    std::string le;
    if (pos < line.size() && line[pos] == '{') {
      Status labels = ParseLabels(line, &pos, &le);
      if (!labels.ok()) return fail(labels.message(), line);
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail("expected ' ' before sample value", line);
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    size_t value_end = pos;
    while (value_end < line.size() && line[value_end] != ' ') ++value_end;
    double value = 0.0;
    if (!ParseSampleValue(line.substr(pos, value_end - pos), &value)) {
      return fail("unparsable sample value", line);
    }
    // Anything after the value must be a timestamp (integer milliseconds).
    pos = value_end;
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos < line.size()) {
      double timestamp = 0.0;
      if (!ParseSampleValue(line.substr(pos), &timestamp)) {
        return fail("trailing junk after sample value", line);
      }
    }

    // Resolve the family: exact TYPE, else a histogram series suffix.
    std::string_view base = name;
    std::string_view suffix;
    auto it = families.find(std::string(name));
    if (it != families.end() && !it->second.kind.empty() &&
        it->second.kind != "histogram") {
      // Plain counter/gauge sample.
    } else {
      suffix = SplitHistogramSuffix(name, &base);
      it = families.find(std::string(base));
      if (it == families.end() || it->second.kind.empty()) {
        // Maybe the full name IS a histogram family (unlikely but legal
        // for a histogram sample line named exactly the family? No —
        // histograms only emit suffixed series).
        return fail("sample without a preceding # TYPE", line);
      }
      if (!suffix.empty() && it->second.kind != "histogram") {
        // `foo_sum` where family `foo` is a counter: treat the full name
        // as its own (untyped) family.
        return fail("sample without a preceding # TYPE", line);
      }
      if (suffix.empty() && it->second.kind == "histogram") {
        return fail("histogram family sampled without a series suffix",
                    line);
      }
    }
    FamilyState& family = it->second;
    family.has_samples = true;

    if (family.kind == "counter") {
      if (!(value >= 0.0) || value != value ||
          value == std::numeric_limits<double>::infinity()) {
        return fail("counter sample must be finite and non-negative", line);
      }
      if (value != static_cast<double>(static_cast<uint64_t>(value))) {
        return fail("counter sample must be integral", line);
      }
    } else if (family.kind == "histogram") {
      if (suffix == "bucket") {
        if (le.empty()) {
          return fail("histogram bucket without an le label", line);
        }
        if (value + 1e-9 < family.last_bucket) {
          return fail("histogram buckets must be cumulative "
                      "(non-decreasing)",
                      line);
        }
        family.last_bucket = value;
        family.last_le_inf = le == "+Inf";
        if (family.last_le_inf) {
          family.saw_inf_bucket = true;
          family.inf_bucket_value = value;
        }
      } else if (suffix == "sum") {
        family.has_sum = true;
      } else if (suffix == "count") {
        family.has_count = true;
        family.count_value = value;
      }
    }
  }

  for (const auto& [name, family] : families) {
    if (family.kind != "histogram" || !family.has_samples) continue;
    if (!family.saw_inf_bucket || !family.last_le_inf) {
      return Status::InvalidArgument("histogram '" + name +
                                     "' must end its buckets with le=\"+Inf\"");
    }
    if (!family.has_sum) {
      return Status::InvalidArgument("histogram '" + name + "' has no _sum");
    }
    if (!family.has_count) {
      return Status::InvalidArgument("histogram '" + name +
                                     "' has no _count");
    }
    if (family.count_value != family.inf_bucket_value) {
      return Status::InvalidArgument(
          "histogram '" + name +
          "' _count disagrees with its +Inf bucket (" +
          FormatNumber(family.count_value) + " vs " +
          FormatNumber(family.inf_bucket_value) + ")");
    }
  }
  return Status::OK();
}

}  // namespace schemr
