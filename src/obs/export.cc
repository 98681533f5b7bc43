#include "obs/export.h"

#include <cmath>
#include <cstdio>

#include "common/fileio.h"

namespace xmodel::obs {

namespace {

// Prometheus metric names use underscores; our dotted scheme maps 1:1.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  // Integral values print without a fraction so counters stay diff-stable.
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

common::Json NumberJson(double v) {
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    return common::Json::Int(static_cast<int64_t>(v));
  }
  return common::Json::Double(v);
}

}  // namespace

std::string ToPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const MetricSnapshot& m : snapshot.metrics) {
    const std::string name = PromName(m.name);
    if (const MetricDef* def = FindMetricDef(m.name)) {
      out += "# HELP " + name + " " + std::string(def->help) + " [" +
             std::string(def->unit) + "]\n";
    }
    out += "# TYPE " + name + " " + MetricKindName(m.kind) + "\n";
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += name + " " + FormatDouble(m.value) + "\n";
        break;
      case MetricKind::kHistogram: {
        // Prometheus buckets are cumulative and le-labelled, ending at +Inf.
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.buckets.size(); ++i) {
          cumulative += m.buckets[i];
          const std::string le =
              i < m.upper_bounds.size() ? FormatDouble(m.upper_bounds[i])
                                        : "+Inf";
          out += name + "_bucket{le=\"" + le + "\"} " +
                 FormatDouble(static_cast<double>(cumulative)) + "\n";
        }
        out += name + "_sum " + FormatDouble(m.sum) + "\n";
        out += name + "_count " +
               FormatDouble(static_cast<double>(m.count)) + "\n";
        break;
      }
    }
  }
  return out;
}

common::Json ToJson(const RegistrySnapshot& snapshot) {
  common::Json doc = common::Json::MakeObject();
  doc.Set("schema", common::Json::Str("xmodel.metrics.v1"));
  common::Json metrics = common::Json::MakeObject();
  for (const MetricSnapshot& m : snapshot.metrics) {
    common::Json entry = common::Json::MakeObject();
    entry.Set("kind", common::Json::Str(MetricKindName(m.kind)));
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        entry.Set("value", NumberJson(m.value));
        break;
      case MetricKind::kHistogram: {
        entry.Set("count",
                  common::Json::Int(static_cast<int64_t>(m.count)));
        entry.Set("sum", common::Json::Double(m.sum));
        common::Json le = common::Json::MakeArray();
        for (double edge : m.upper_bounds) {
          le.Append(common::Json::Double(edge));
        }
        entry.Set("le", std::move(le));
        common::Json buckets = common::Json::MakeArray();
        for (uint64_t b : m.buckets) {
          buckets.Append(common::Json::Int(static_cast<int64_t>(b)));
        }
        entry.Set("buckets", std::move(buckets));
        break;
      }
    }
    metrics.Set(m.name, std::move(entry));
  }
  doc.Set("metrics", std::move(metrics));
  return doc;
}

common::Status WriteJsonFile(const common::Json& doc,
                             const std::string& path) {
  // Crash-safe replace via the shared temp-file + atomic-rename helper:
  // a reader (or a crash mid-write) never sees a truncated document.
  return common::WriteFileAtomic(path, doc.Dump() + "\n");
}

common::Status WriteMetricsJson(const RegistrySnapshot& snapshot,
                                const std::string& path) {
  return WriteJsonFile(ToJson(snapshot), path);
}

}  // namespace xmodel::obs
