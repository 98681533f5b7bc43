#ifndef XMODEL_OBS_EXPORT_H_
#define XMODEL_OBS_EXPORT_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace xmodel::obs {

/// Prometheus-style text exposition: per metric a `# HELP` line (the
/// declared help text and `[unit]`) and a `# TYPE` line, then bucket
/// series with cumulative counts and `le` labels, `_sum`/`_count` series.
/// Dots in metric names become underscores, per Prometheus naming rules.
std::string ToPrometheusText(const RegistrySnapshot& snapshot);

/// Machine-readable snapshot document:
///   { "schema": "xmodel.metrics.v1",
///     "metrics": { "<name>": {"kind": "...", ...}, ... } }
/// Histograms carry non-cumulative `buckets` aligned with `le` edges plus
/// the +Inf bucket. Callers may Set() extra top-level members (benches add
/// "bench"/"quick"/"results") before serializing.
common::Json ToJson(const RegistrySnapshot& snapshot);

/// Serializes `doc` to `path` (single line + trailing newline).
common::Status WriteJsonFile(const common::Json& doc,
                             const std::string& path);

/// ToJson + WriteJsonFile in one step — the `--metrics-out=FILE` backend.
common::Status WriteMetricsJson(const RegistrySnapshot& snapshot,
                                const std::string& path);

}  // namespace xmodel::obs

#endif  // XMODEL_OBS_EXPORT_H_
