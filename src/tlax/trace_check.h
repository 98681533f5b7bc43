#ifndef XMODEL_TLAX_TRACE_CHECK_H_
#define XMODEL_TLAX_TRACE_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "tlax/spec.h"
#include "tlax/tla_text.h"

namespace xmodel::obs {
class Watchdog;
}  // namespace xmodel::obs

namespace xmodel::tlax {

/// How the trace is checked against the specification.
enum class TraceCheckMode {
  /// Single pass: parse (if needed) once, then one BFS sweep over
  /// (spec state × trace index). This models the TLC extension the paper's
  /// §4.2.4 says Kuppe was building ("bypassing the TLA+ parser").
  kNative,
  /// Pressler's 2018 method as the paper used it: the trace lives in a
  /// generated Trace module, and extending the checked prefix by one step
  /// re-parses the whole module text. Checking a trace of n events costs
  /// n whole-module parses — the O(n^2) behavior that made thousands of
  /// events "impractically slow" (§4.2.4).
  kPresslerReparse,
};

struct TraceCheckOptions {
  TraceCheckMode mode = TraceCheckMode::kNative;
  /// Permit consecutive trace states explained by stuttering (no spec
  /// action), needed when two trace events map to one spec step.
  bool allow_stuttering = false;
  /// Maximum spec actions one observed step may span. 1 = classic MBTC
  /// (every transition logged). Larger values support SPARSE observation —
  /// e.g. whole-process snapshots taken between driver calls that each
  /// perform several transitions (the paper's §6 snapshotting idea).
  /// Intermediate hidden states are existentially quantified.
  int max_hidden_steps = 1;
  /// Node budget per observed step for the hidden-step search, to bound
  /// the blow-up when max_hidden_steps is large. A search cut short by it
  /// may miss states, so a trace that then fails to match is reported as
  /// ResourceExhausted, not as a violation.
  uint64_t max_search_states_per_step = 200'000;
  /// Ignored: the per-step search is serial; kept only so xbench compiles.
  int num_workers = 1;
  /// Optional stall watchdog: heartbeats once per search layer and at
  /// every live flush (each 1024 explored states), so a wedged action
  /// expansion trips the stall detector even mid-step. Not owned.
  obs::Watchdog* watchdog = nullptr;
  /// Wall-time source for `seconds`; null = the process steady clock.
  common::MonotonicClock* clock = nullptr;
};

struct TraceCheckResult {
  /// OK when the trace is a permitted behavior; FailedPrecondition with
  /// `failed_step` set when it is not; ResourceExhausted with
  /// `failed_step` set when no state matched after an earlier step's search
  /// ran out of budget (the verdict is unknown); other codes for
  /// infrastructure errors (e.g. unparsable module).
  common::Status status;
  /// 0-based index of the first trace state the search did not explain.
  size_t failed_step = 0;
  /// Names of actions that can explain each accepted step (step 0 maps to
  /// the initial predicate and is reported as "Init").
  std::vector<std::vector<std::string>> step_actions;
  uint64_t states_explored = 0;
  double seconds = 0;

  bool ok() const { return status.ok(); }
};

/// Model-based trace checking: verifies that an observed (possibly partial)
/// state sequence is a behavior of `spec`.
///
/// The checker runs a breadth-first search over pairs (spec state, trace
/// position): a spec state s is viable at position i when s matches every
/// variable trace[i] defines. Undefined variables are existentially
/// quantified, implementing Pressler's refinement-style handling of
/// unlogged state (§4.2.3). The trace is accepted iff some viable state
/// exists at the final position.
///
/// Every check publishes the checker.trace.* counters to the global
/// registry: at the end of the run, plus a live flush of
/// checker.trace.states.explored from the search every 1024 explored states,
/// so a mid-run /metrics scrape sees the counter advance. The total always
/// reconciles exactly with TraceCheckResult::states_explored.
///
/// Each check runs inside a Value::InternScope: every value it builds that
/// was not interned before is freed when it returns (the result holds only
/// strings), so checking many traces in one process does not grow the
/// intern table.
class TraceChecker {
 public:
  explicit TraceChecker(TraceCheckOptions options = {}) : options_(options) {}

  /// Checks an in-memory trace.
  TraceCheckResult Check(const Spec& spec,
                         const std::vector<TraceState>& trace) const;

  /// Checks a serialized Trace module (see TraceModuleText). In
  /// kPresslerReparse mode the module text is re-parsed once per trace
  /// step; both modes share one step loop and give identical results.
  TraceCheckResult CheckModule(const Spec& spec,
                               const std::string& module_text) const;

 private:
  TraceCheckOptions options_;
};

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_TRACE_CHECK_H_
