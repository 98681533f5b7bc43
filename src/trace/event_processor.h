#ifndef XMODEL_TRACE_EVENT_PROCESSOR_H_
#define XMODEL_TRACE_EVENT_PROCESSOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "tlax/state.h"
#include "trace/trace_event.h"

namespace xmodel::trace {

struct EventProcessorOptions {
  int num_nodes = 3;
  /// Fill in variables a partial-state event did not log, from the node's
  /// previous known state (§6's recommendation).
  bool fill_in_unlogged_variables = true;
  /// Repair the "Copying the oplog" discrepancy (§4.2.2, solution 4): when
  /// an initial-synced node logs an oplog that is a strict suffix of
  /// another node's, fill in the missing prefix entries, simulating the
  /// conformant whole-log copy the spec describes.
  bool fill_in_missing_oplog_entries = true;
};

/// The post-processed state sequence: one full replica-set state per trace
/// event, preceded by the known initial state (paper Figure 3).
struct ProcessedTrace {
  common::Status status;
  std::vector<tlax::State> states;
  /// Action names aligned with `states` ("Init" for the first).
  std::vector<std::string> actions;

  bool ok() const { return status.ok(); }
};

/// The Python post-processor's equivalent: merges per-node events into a
/// sequence of whole-replica-set states using the Figure 3 combination
/// rules:
///
///  - role: the script assumes at most one leader. An event with role
///    Leader demotes every other node to Follower; a Leader→Follower event
///    changes only that node.
///  - term, commitPoint, oplog: replace the acting node's values; other
///    nodes' values are unchanged.
///
/// Each state is its predecessor with only the variables the event changed
/// rebuilt: an oplog value is built only when the node's repaired log
/// differs from its previous one.
class EventProcessor {
 public:
  explicit EventProcessor(EventProcessorOptions options)
      : options_(options) {}

  ProcessedTrace Process(const std::vector<TraceEvent>& events) const;

 private:
  EventProcessorOptions options_;
};

}  // namespace xmodel::trace

#endif  // XMODEL_TRACE_EVENT_PROCESSOR_H_
