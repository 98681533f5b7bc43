#include "trace/trace_logger.h"

#include <cassert>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/strings.h"
#include "obs/metrics.h"

namespace xmodel::trace {

void TraceLogger::OnTraceEvent(const repl::ReplTraceEvent& event) {
  // Figure 2: sleep until the clock's millisecond value changes, so that
  // every event in the whole replica set gets a distinct timestamp and the
  // merged trace is totally ordered.
  int64_t before = clock_->NowMs();
  int64_t after = before;
  while (after == before || after <= last_timestamp_) {
    clock_->AdvanceMs(1);
    after = clock_->NowMs();
  }
  assert(after > before && "Clock went backwards");
  last_timestamp_ = after;

  TraceEvent line;
  line.timestamp_ms = after;
  line.node_id = event.node_id;
  line.action = repl::ReplActionName(event.action);
  line.oplog_from_stale_snapshot = event.oplog_from_stale_snapshot;

  bool log_all = true;
  if (options_.partial_state_logging) {
    auto it = last_logged_.find(event.node_id);
    if (it != last_logged_.end()) {
      log_all = false;
      const repl::ReplTraceEvent& prev = it->second;
      if (event.role != prev.role) line.role = event.role;
      if (event.term != prev.term) line.term = event.term;
      if (!(event.commit_point == prev.commit_point)) {
        line.commit_point = event.commit_point;
      }
      if (event.oplog_terms != prev.oplog_terms) {
        line.oplog_terms = event.oplog_terms;
      }
    }
  }
  if (log_all) {
    line.role = event.role;
    line.term = event.term;
    line.commit_point = event.commit_point;
    line.oplog_terms = event.oplog_terms;
  }

  logs_[event.node_id].push_back(line.ToJsonLine());
  last_logged_[event.node_id] = event;
  ++events_logged_;

  // Per-node traced-event tallies (repl.node<k>.events.logged) plus the
  // aggregate. Counter handles are cached per node id across all loggers.
  auto it = node_counters_.find(event.node_id);
  if (it == node_counters_.end()) {
    it = node_counters_
             .emplace(event.node_id,
                      &obs::MetricsRegistry::Global().GetCounter(
                          common::StrCat("repl.node", event.node_id,
                                         ".events.logged")))
             .first;
  }
  it->second->Increment();
  static obs::Counter& total =
      obs::MetricsRegistry::Global().GetCounter("repl.events.logged");
  total.Increment();
}

std::vector<std::vector<std::string>> TraceLogger::LogFiles(
    int num_nodes) const {
  std::vector<std::vector<std::string>> files(num_nodes);
  for (const auto& [node, lines] : logs_) {
    if (node >= 0 && node < num_nodes) files[node] = lines;
  }
  return files;
}

namespace {

// True when `name` is `node<N>.log`; sets *node to N.
bool ParseNodeLogName(const std::string& name, unsigned* node) {
  return name.size() > 8 && common::StartsWith(name, "node") &&
         name.compare(name.size() - 4, 4, ".log") == 0 &&
         common::ParseInteger<unsigned>(
             std::string_view(name).substr(4, name.size() - 8), 0,
             std::numeric_limits<unsigned>::max(), node);
}

}  // namespace

common::Status TraceLogger::WriteLogFiles(const std::string& directory,
                                          int num_nodes) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return common::Status::NotFound(
        common::StrCat("no such directory: ", directory));
  }
  // An earlier run with more nodes may have left node<N>.log files past
  // this run's last node; ReadLogFiles would merge them into this run.
  std::vector<fs::path> stale;
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    unsigned node = 0;
    if (ParseNodeLogName(it->path().filename().string(), &node) &&
        static_cast<int64_t>(node) >= num_nodes) {
      stale.push_back(it->path());
    }
  }
  if (ec) {
    return common::Status::Internal(
        common::StrCat("cannot list ", directory, ": ", ec.message()));
  }
  for (const fs::path& path : stale) {
    if (!fs::remove(path, ec) && ec) {
      return common::Status::Internal(common::StrCat(
          "cannot delete stale ", path.string(), ": ", ec.message()));
    }
  }
  auto files = LogFiles(num_nodes);
  for (int node = 0; node < num_nodes; ++node) {
    std::string path =
        common::StrCat(directory, "/node", node, ".log");
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : files[node]) out << line << "\n";
    out.close();
    if (!out) {
      return common::Status::Internal(common::StrCat("cannot write ", path));
    }
  }
  return common::Status::OK();
}

common::Result<std::vector<std::vector<std::string>>>
TraceLogger::ReadLogFiles(const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return common::Status::NotFound(
        common::StrCat("no such directory: ", directory));
  }
  std::vector<std::vector<std::string>> files;
  for (int node = 0;; ++node) {
    std::string path = common::StrCat(directory, "/node", node, ".log");
    if (!fs::exists(path, ec)) break;
    std::ifstream in(path);
    if (!in) {
      return common::Status::Internal(common::StrCat("cannot read ", path));
    }
    std::vector<std::string> lines;
    std::string line;
    // Empty lines are kept so that MergeLogs' line numbers match the file.
    while (std::getline(in, line)) lines.push_back(line);
    files.push_back(std::move(lines));
  }
  if (files.empty()) {
    return common::Status::NotFound(
        common::StrCat("no node<N>.log files in ", directory));
  }
  // The node files must be numbered without a gap: a missing node<N>.log
  // would otherwise silently drop every later node from the check.
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    unsigned node = 0;
    if (ParseNodeLogName(name, &node) && node >= files.size()) {
      return common::Status::NotFound(common::StrCat(
          "node", files.size(), ".log is missing from ", directory,
          " but ", name, " is there"));
    }
  }
  return files;
}

void TraceLogger::Clear() {
  logs_.clear();
  last_logged_.clear();
  events_logged_ = 0;
  last_timestamp_ = -1;
}

}  // namespace xmodel::trace
