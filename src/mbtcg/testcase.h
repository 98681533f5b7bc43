#ifndef XMODEL_MBTCG_TESTCASE_H_
#define XMODEL_MBTCG_TESTCASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "ot/operation.h"
#include "tlax/state_graph.h"

namespace xmodel::mbtcg {

/// One generated conformance test (paper §5.2): (1) the initial array,
/// (2) the operation each client performed, (3) the transformed operations
/// each client applied after merging, and (4) the final converged array.
struct TestCase {
  ot::Array initial;
  /// client_ops[i] is client (i+1)'s original operation.
  std::vector<ot::Operation> client_ops;
  /// applied_ops[i] are the transformed server ops client (i+1) applied.
  std::vector<ot::OpList> applied_ops;
  ot::Array final_array;
  /// Stable fingerprint used in generated test names, like the paper's
  /// Transform_Node__6971023528664242108.
  uint64_t case_id = 0;
  /// Merge schedule the specification used (must be replayed identically).
  bool merge_descending = false;
};

/// Extracts one test case per terminal (fully-merged) node of the explored
/// array_ot state graph, read straight from the checker's recorded graph.
/// `variables` names the state variables by index (Spec::variables()).
///
/// Action labels are resolved once to ranks in the sorted unique label
/// table, and cases are sorted by (root, path key, leaf id), where the path
/// key is the action-rank sequence of the leaf's BFS-shortest path from the
/// first initial node that reaches it. Extraction over the terminal leaves
/// is fanned out over `num_workers` threads (0 = hardware concurrency); the
/// output is worker-count invariant.
common::Result<std::vector<TestCase>> ExtractTestCases(
    const tlax::StateGraph& graph, const std::vector<std::string>& variables,
    int num_clients, int num_workers = 1);

}  // namespace xmodel::mbtcg

#endif  // XMODEL_MBTCG_TESTCASE_H_
