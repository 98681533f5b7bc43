#ifndef XMODEL_MBTCG_GENERATOR_H_
#define XMODEL_MBTCG_GENERATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "mbtcg/testcase.h"
#include "ot/sync.h"
#include "specs/array_ot_spec.h"

namespace xmodel::mbtcg {

/// Knobs for one GenerateTestCases run.
struct GenerateOptions {
  /// Workers for both the model-check stage and the per-leaf extraction
  /// fan-out (0 = one per hardware thread). Output is identical at every
  /// worker count.
  int num_workers = 1;
};

/// Statistics from one end-to-end MBTCG run.
struct GenerationReport {
  common::Status status;
  uint64_t spec_states = 0;
  double model_check_seconds = 0;
  size_t num_cases = 0;
  /// Initial nodes of the recorded graph (extraction roots).
  size_t roots = 0;
  /// Wall time of the extraction stage.
  double extract_seconds = 0;
  /// Exploration workers the model-check stage actually used (after
  /// resolving num_workers == 0 to the hardware thread count).
  int workers_used = 1;
};

/// The paper's §5.2 pipeline, end to end: model-check the array_ot spec
/// recording the state graph, then extract one test case per fully-merged
/// leaf state straight from the in-memory graph. The paper parsed TLC's DOT
/// dump back because TLC ran as a separate process; here checker and
/// extractor share one, so the graph is handed over directly.
GenerationReport GenerateTestCases(const specs::ArrayOtConfig& config,
                                   std::vector<TestCase>* cases,
                                   const GenerateOptions& options = {});

/// Renders generated cases as a compilable gtest C++ source file (the
/// Figure 9 shape). `max_cases` limits the file size (0 = all).
std::string GenerateCppTestFile(const std::vector<TestCase>& cases,
                                size_t max_cases = 0);

/// A run of generated cases against one implementation.
struct RunReport {
  size_t total = 0;
  size_t passed = 0;
  /// Messages for the first 10 failures, in case order (diagnostics).
  std::vector<std::string> failures;

  bool all_passed() const { return passed == total; }
};

/// Executes every case in-process against the given transformer (null =
/// the default C++ MergeEngine). `check_applied_ops` additionally compares
/// the transformed operations each client applied (exact for the C++
/// implementation; the Go implementation represents swap decompositions
/// differently, so callers disable it when swaps are in play).
///
/// Cases run concurrently on `num_workers` threads (0 = one per hardware
/// thread), so `transformer` must be safe to call from several threads at
/// once; both implementations are. The report is the same at every worker
/// count.
RunReport RunTestCases(const std::vector<TestCase>& cases,
                       const ot::ListTransformer* transformer = nullptr,
                       bool check_applied_ops = true, int num_workers = 0);

}  // namespace xmodel::mbtcg

#endif  // XMODEL_MBTCG_GENERATOR_H_
