#ifndef XMODEL_TRACE_MBTC_PIPELINE_H_
#define XMODEL_TRACE_MBTC_PIPELINE_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "obs/watchdog.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/trace_check.h"
#include "trace/event_processor.h"
#include "trace/trace_event.h"

namespace xmodel::trace {

/// End-to-end MBTC report for one test run.
struct MbtcReport {
  /// Pipeline-level status (log merge / processing errors). The trace-check
  /// verdict is in `check`.
  common::Status status;
  uint64_t num_events = 0;
  size_t num_states = 0;
  /// The generated Trace module text (paper Figure 4).
  std::string trace_module;
  tlax::TraceCheckResult check;

  bool passed() const { return status.ok() && check.ok(); }
};

struct MbtcPipelineOptions {
  EventProcessorOptions processor;
  tlax::TraceCheckOptions checker;
  /// Keep the generated Trace module text in the report.
  bool emit_trace_module = true;
  /// Wall clock for phase timing; null means the real steady clock.
  common::MonotonicClock* clock = nullptr;
  /// Liveness watchdog: heartbeaten at every phase boundary (parse, map,
  /// check) so /healthz can spot a pipeline wedged inside one phase.
  /// Null = no heartbeats.
  obs::Watchdog* watchdog = nullptr;
};

/// The paper's Figure 1 data pipeline: per-node log files → merged,
/// timestamp-ordered events → post-processed replica-set state sequence →
/// generated Trace module → trace check against RaftMongo. Each Run
/// publishes the mbtc.* metrics (phase latency histograms, event counters,
/// throughput) to the global registry.
class MbtcPipeline {
 public:
  MbtcPipeline(const specs::RaftMongoSpec* spec, MbtcPipelineOptions options)
      : spec_(spec), options_(options) {
    options_.processor.num_nodes = spec->config().num_nodes;
  }

  MbtcReport Run(
      const std::vector<std::vector<std::string>>& log_files) const;

  /// Converts a processed state sequence into the (fully-defined) trace
  /// states the checker consumes.
  static std::vector<tlax::TraceState> ToTraceStates(
      const std::vector<tlax::State>& states);

 private:
  const specs::RaftMongoSpec* spec_;
  MbtcPipelineOptions options_;
};

}  // namespace xmodel::trace

#endif  // XMODEL_TRACE_MBTC_PIPELINE_H_
