#include "trace/trace_event.h"

#include <algorithm>
#include <limits>

#include "common/json.h"
#include "common/strings.h"

namespace xmodel::trace {

using common::JsonCursor;
using common::Result;
using common::Status;
using common::StrCat;

std::string TraceEvent::ToJsonLine() const {
  std::string line = "{\"t\":";
  line.reserve(96 + (oplog_terms.has_value() ? 4 * oplog_terms->size() : 0));
  common::AppendJsonInt(&line, timestamp_ms);
  line += ",\"node\":";
  common::AppendJsonInt(&line, node_id);
  line += ",\"action\":";
  common::AppendJsonString(&line, action);
  if (role.has_value()) {
    line += ",\"role\":";
    common::AppendJsonString(&line, *role);
  }
  if (term.has_value()) {
    line += ",\"term\":";
    common::AppendJsonInt(&line, *term);
  }
  if (commit_point.has_value()) {
    line += ",\"commitPoint\":";
    if (commit_point->IsNull()) {
      line += "null";
    } else {
      line += "{\"term\":";
      common::AppendJsonInt(&line, commit_point->term);
      line += ",\"index\":";
      common::AppendJsonInt(&line, commit_point->index);
      line += '}';
    }
  }
  if (oplog_terms.has_value()) {
    line += ",\"oplog\":[";
    for (size_t i = 0; i < oplog_terms->size(); ++i) {
      if (i > 0) line += ',';
      common::AppendJsonInt(&line, (*oplog_terms)[i]);
    }
    line += ']';
  }
  if (oplog_from_stale_snapshot) line += ",\"stale\":true";
  line += '}';
  return line;
}

namespace {

// Reads a commitPoint value: null, or an object with integer term and
// index (other keys skipped).
bool ReadCommitPoint(JsonCursor& in, repl::OpTime* cp) {
  *cp = repl::OpTime{};
  if (in.ConsumeNull()) return true;
  bool has_term = false;
  bool has_index = false;
  return in.ReadObject([&](std::string_view key) {
           if (key == "term") return has_term = in.ReadInt(&cp->term);
           if (key == "index") return has_index = in.ReadInt(&cp->index);
           return in.ReadValue(nullptr);
         }) &&
         ((has_term && has_index) || in.Fail("malformed commitPoint"));
}

}  // namespace

Result<TraceEvent> TraceEvent::FromJsonLine(std::string_view line) {
  JsonCursor in(line);
  TraceEvent event;
  int64_t node = 0;
  bool has_t = false;
  bool has_node = false;
  bool has_action = false;
  const bool read =
      in.ReadObject([&](std::string_view key) {
        if (key == "t") return has_t = in.ReadInt(&event.timestamp_ms);
        if (key == "node") return has_node = in.ReadInt(&node);
        if (key == "action") return has_action = in.ReadString(&event.action);
        if (key == "role") return in.ReadString(&event.role.emplace());
        if (key == "term") return in.ReadInt(&event.term.emplace());
        if (key == "commitPoint") {
          return ReadCommitPoint(in, &event.commit_point.emplace());
        }
        if (key == "oplog") {
          std::vector<int64_t>& terms = event.oplog_terms.emplace();
          return in.ReadArray(
              [&] { return in.ReadInt(&terms.emplace_back()); });
        }
        if (key == "stale") {
          return in.ReadBool(&event.oplog_from_stale_snapshot);
        }
        return in.ReadValue(nullptr);
      }) &&
      in.ExpectEnd();
  if (!read) return in.status();
  if (!has_t || !has_node || !has_action) {
    return Status::Corruption("log line missing t/node/action");
  }
  if (node < std::numeric_limits<int>::min() ||
      node > std::numeric_limits<int>::max()) {
    return Status::Corruption(StrCat("node id ", node, " out of range"));
  }
  event.node_id = static_cast<int>(node);
  return event;
}

Result<std::vector<TraceEvent>> MergeLogs(
    const std::vector<std::vector<std::string>>& per_node_log_lines) {
  size_t total = 0;
  for (const auto& log : per_node_log_lines) total += log.size();
  std::vector<TraceEvent> events;
  events.reserve(total);
  for (size_t node = 0; node < per_node_log_lines.size(); ++node) {
    const std::vector<std::string>& log = per_node_log_lines[node];
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].empty()) continue;
      Result<TraceEvent> event = TraceEvent::FromJsonLine(log[i]);
      if (!event.ok()) {
        return Status::Corruption(StrCat("node ", node, ", line ", i + 1,
                                         ": ", event.status().message()));
      }
      events.push_back(std::move(*event));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.timestamp_ms < b.timestamp_ms;
                   });
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].timestamp_ms == events[i - 1].timestamp_ms) {
      return Status::Corruption(
          StrCat("duplicate timestamp ", events[i].timestamp_ms,
                 " — events cannot be totally ordered"));
    }
  }
  return events;
}

}  // namespace xmodel::trace
