#ifndef XMODEL_TRACE_TRACE_LOGGER_H_
#define XMODEL_TRACE_TRACE_LOGGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "repl/network.h"
#include "repl/trace_sink.h"
#include "trace/trace_event.h"

namespace xmodel::trace {

struct TraceLoggerOptions {
  /// Log only variables that changed since the node's previous event; the
  /// post-processor fills the rest in (the cheaper logging mode the paper
  /// wishes it had used, §4.2.1/§6).
  bool partial_state_logging = false;
};

/// The logTlaPlusTraceEvent implementation (paper Figure 2): timestamps
/// each event with the shared simulation clock, sleeping (advancing the
/// virtual clock) until the millisecond value changes so that all events
/// across all nodes carry distinct, totally-ordered timestamps. Events are
/// appended to a per-node log file (an in-memory line buffer here).
class TraceLogger : public repl::ReplTraceSink {
 public:
  TraceLogger(repl::SimClock* clock, TraceLoggerOptions options = {})
      : clock_(clock), options_(options) {}

  void OnTraceEvent(const repl::ReplTraceEvent& event) override;

  /// Per-node log lines ("log files"), keyed by node id.
  const std::map<int, std::vector<std::string>>& logs() const {
    return logs_;
  }

  /// Log files as a dense vector (index = node id; empty logs for nodes
  /// that never emitted).
  std::vector<std::vector<std::string>> LogFiles(int num_nodes) const;

  /// Writes one `node<N>.log` file per node into `directory` (which must
  /// exist) — the on-disk shape of the paper's Figure 1 pipeline — and
  /// deletes any `node<N>.log` with N >= num_nodes left by an earlier,
  /// larger run. Internal when a file cannot be listed, deleted, written
  /// or closed.
  common::Status WriteLogFiles(const std::string& directory,
                               int num_nodes) const;

  /// Reads every `node<N>.log` in `directory` back into per-node line
  /// vectors (index = N), empty lines included. NotFound when there is no
  /// node0.log, or when a node<N>.log is missing below one that exists.
  static common::Result<std::vector<std::vector<std::string>>> ReadLogFiles(
      const std::string& directory);

  uint64_t events_logged() const { return events_logged_; }
  void Clear();

 private:
  repl::SimClock* clock_;
  TraceLoggerOptions options_;
  std::map<int, std::vector<std::string>> logs_;
  // Last logged values per node, for partial-state logging.
  std::map<int, repl::ReplTraceEvent> last_logged_;
  int64_t last_timestamp_ = -1;
  uint64_t events_logged_ = 0;
  // Cached registry handles for repl.node<N>.events.logged.
  std::map<int, obs::Counter*> node_counters_;
};

}  // namespace xmodel::trace

#endif  // XMODEL_TRACE_TRACE_LOGGER_H_
