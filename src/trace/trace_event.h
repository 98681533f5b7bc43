#ifndef XMODEL_TRACE_TRACE_EVENT_H_
#define XMODEL_TRACE_TRACE_EVENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "repl/oplog.h"

namespace xmodel::trace {

/// A timestamped trace event as written to a node's log file: the acting
/// node's state right after one instrumented state transition. In
/// partial-state logging mode (the §4.2.1/§6 ablation) unchanged variables
/// are omitted and the post-processor fills them in.
struct TraceEvent {
  int64_t timestamp_ms = 0;
  int node_id = 0;
  std::string action;
  std::optional<std::string> role;
  std::optional<int64_t> term;
  /// (0, 0) encodes a null commit point.
  std::optional<repl::OpTime> commit_point;
  std::optional<std::vector<int64_t>> oplog_terms;
  bool oplog_from_stale_snapshot = false;

  /// Serializes to one JSON log line (no trailing newline): the keys t,
  /// node, action, then each logged variable, in that order.
  std::string ToJsonLine() const;

  /// Parses a log line produced by ToJsonLine, in one pass and without a
  /// JSON tree. Keys it does not know are skipped. A missing t, node or
  /// action, a field of the wrong type, or an integer out of its field's
  /// range is Corruption: log lines are untrusted input.
  static common::Result<TraceEvent> FromJsonLine(std::string_view line);
};

/// Merges per-node log files into one event sequence ordered by timestamp.
/// Empty lines are skipped. Fails with Corruption on an unparsable line,
/// naming it as "node <N>, line <L>" (1-based, counting empty lines), or
/// on duplicate timestamps (the strict ordering that Figure 2's clock-tick
/// wait guarantees).
common::Result<std::vector<TraceEvent>> MergeLogs(
    const std::vector<std::vector<std::string>>& per_node_log_lines);

}  // namespace xmodel::trace

#endif  // XMODEL_TRACE_TRACE_EVENT_H_
