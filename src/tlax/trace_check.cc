#include "tlax/trace_check.h"

#include <algorithm>
#include <cstddef>
#include <unordered_set>
#include <utility>

#include "common/clock.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace xmodel::tlax {

using common::Status;
using common::StrCat;

namespace {

class Timer {
 public:
  explicit Timer(common::MonotonicClock* clock)
      : clock_(clock != nullptr ? clock : common::MonotonicClock::Real()),
        start_ns_(clock_->NowNanos()) {}
  double Seconds() const {
    return static_cast<double>(clock_->NowNanos() - start_ns_) * 1e-9;
  }

 private:
  common::MonotonicClock* clock_;
  int64_t start_ns_;
};

// The search flushes checker.trace.states.explored to the live registry
// (and heartbeats the watchdog) once per this many newly explored states,
// so a mid-run /metrics scrape watches the counter advance instead of
// seeing 0 until the run ends.
constexpr uint64_t kLiveFlushEntries = 1024;

// End-of-run telemetry for one trace check (the checker.trace.* family).
// `already_published` is the portion of states_explored the search already
// flushed live; only the remainder is added here so the counter
// reconciles exactly with the final total.
void PublishTraceMetrics(const TraceCheckResult& result,
                         uint64_t already_published) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("checker.trace.runs.completed").Increment();
  registry.GetCounter("checker.trace.steps.checked")
      .Increment(result.step_actions.size());
  registry.GetCounter("checker.trace.states.explored")
      .Increment(result.states_explored - already_published);
  if (result.status.code() == common::StatusCode::kFailedPrecondition) {
    registry.GetCounter("checker.trace.violations.found").Increment();
  }
  registry.GetGauge("checker.trace.run.seconds").Set(result.seconds);
}

// A deduplicated frontier of spec states viable at one trace position.
class Frontier {
 public:
  bool Add(State state) {
    if (!fingerprints_.insert(state.fingerprint()).second) return false;
    states_.push_back(std::move(state));
    return true;
  }
  const std::vector<State>& states() const { return states_; }
  bool empty() const { return states_.empty(); }
  void Clear() {
    states_.clear();
    fingerprints_.clear();
  }

 private:
  std::vector<State> states_;
  std::unordered_set<uint64_t> fingerprints_;
};

// What one step's search found.
struct Advance {
  /// Action names whose final step explained the match, in search order.
  std::vector<std::string> explaining;
  /// The search budget ran out before the search was complete, so the new
  /// frontier may lack states that some spec behavior reaches.
  bool truncated = false;
};

// Whether some action is enabled in `state`. Runs the actions in order
// only until the first successor appears; `scratch` is reused storage.
bool HasSuccessor(const std::vector<Action>& actions, const State& state,
                  std::vector<State>* scratch) {
  for (const Action& action : actions) {
    scratch->clear();
    action.next(state, scratch);
    if (!scratch->empty()) return true;
  }
  return false;
}

// Advances `frontier` from trace position i-1 to position i (matching
// `target`), searching up to `options.max_hidden_steps` spec actions deep.
//
// One serial sweep per layer: each layer state is expanded in order, and
// each successor is counted, matched, deduplicated and pushed to the next
// layer as its action produces it. `*flushed_explored` is the part of
// `*states_explored` already flushed to the live counter.
Advance AdvanceFrontier(const Spec& spec, const TraceState& target,
                        const TraceCheckOptions& options, Frontier* frontier,
                        uint64_t* states_explored,
                        uint64_t* flushed_explored) {
  static obs::Histogram& layer_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "checker.trace.layer_size");
  static obs::Counter& live_explored =
      obs::MetricsRegistry::Global().GetCounter(
          "checker.trace.states.explored");
  Advance advance;
  std::vector<std::string>& explaining = advance.explaining;
  auto note_action = [&explaining](const std::string& name) {
    if (std::find(explaining.begin(), explaining.end(), name) ==
        explaining.end()) {
      explaining.push_back(name);
    }
  };

  Frontier next;
  if (options.allow_stuttering) {
    for (const State& s : frontier->states()) {
      if (target.Matches(s.vars())) {
        if (next.Add(s)) note_action("(stuttering)");
      }
    }
  }

  // Breadth-first over hidden intermediate states: layer d holds states d
  // actions past the previous observation. Matches may occur at any layer
  // up to max_hidden_steps; only matching states enter the next frontier.
  Frontier visited;  // Dedup across layers.
  std::vector<State> layer = frontier->states();
  for (const State& s : layer) visited.Add(s);
  uint64_t budget = options.max_search_states_per_step;

  const std::vector<Action>& actions = spec.actions();
  std::vector<State> successors;
  for (int depth = 1;
       depth <= options.max_hidden_steps && !layer.empty() && budget > 0;
       ++depth) {
    layer_hist.Observe(static_cast<double>(layer.size()));
    if (options.watchdog != nullptr) options.watchdog->Heartbeat();
    std::vector<State> next_layer;
    // Once the budget reaches 0, the layer stops after the state it is
    // expanding.
    size_t expanded = 0;
    for (; expanded < layer.size() && budget > 0; ++expanded) {
      for (const Action& action : actions) {
        successors.clear();
        action.next(layer[expanded], &successors);
        for (State& succ : successors) {
          ++*states_explored;
          if (budget > 0) --budget;
          if (target.Matches(succ.vars())) {
            if (next.Add(succ)) note_action(action.name);
          }
          if (depth < options.max_hidden_steps && visited.Add(succ)) {
            if (budget > 0) {
              next_layer.push_back(std::move(succ));
            } else {
              advance.truncated = true;  // New, but never expanded.
            }
          }
          if (*states_explored - *flushed_explored >= kLiveFlushEntries) {
            live_explored.Increment(*states_explored - *flushed_explored);
            *flushed_explored = *states_explored;
            if (options.watchdog != nullptr) options.watchdog->Heartbeat();
          }
        }
      }
    }
    // Out of budget with work left: a next layer that is never expanded,
    // or an unexpanded state of this layer with a successor (its matches
    // included). The probe is not exploration, so it counts nothing.
    if (budget == 0 && !advance.truncated) {
      advance.truncated =
          !next_layer.empty() ||
          std::any_of(layer.begin() + static_cast<std::ptrdiff_t>(expanded),
                      layer.end(), [&](const State& s) {
                        return HasSuccessor(actions, s, &successors);
                      });
    }
    layer = std::move(next_layer);
  }
  *frontier = std::move(next);
  return advance;
}

// The step loop of both modes: match the initial states against trace
// state 0, then advance the frontier one observed step at a time. With
// `module_text` set (Pressler mode) the module is re-parsed before every
// step and the step reads its target from that fresh parse, the way each
// TLC evaluation step re-evaluates the in-module trace tuple: n steps
// cost n whole-module parses, the O(n^2) behavior E4 measures. Publishes
// the run's metrics.
TraceCheckResult CheckSteps(const TraceCheckOptions& options,
                            const Spec& spec,
                            const std::vector<TraceState>& trace,
                            const std::string* module_text,
                            const Timer& timer) {
  uint64_t explored = 0;
  uint64_t published = 0;  // Live-flushed portion of `explored`.

  const std::vector<TraceState>* current = &trace;
  std::vector<TraceState> reparsed;
  auto reparse = [&]() -> Status {
    if (module_text == nullptr) return Status::OK();
    auto parsed = ParseTraceModule(*module_text, spec.variables().size());
    if (!parsed.ok()) return parsed.status();
    reparsed = std::move(*parsed);
    current = &reparsed;
    return Status::OK();
  };

  TraceCheckResult result = [&]() -> TraceCheckResult {
    TraceCheckResult result;
    if (trace.empty()) {
      result.status = Status::OK();
      return result;
    }

    result.status = reparse();
    if (!result.ok()) return result;
    Frontier frontier;
    for (State& init : spec.InitialStates()) {
      ++explored;
      if ((*current)[0].Matches(init.vars())) frontier.Add(std::move(init));
    }
    if (frontier.empty()) {
      result.status = Status::FailedPrecondition(
          "trace state 0 matches no initial state of the specification");
      result.failed_step = 0;
      return result;
    }
    result.step_actions.push_back({"Init"});

    // The first step whose search ran out of budget: from there on the
    // frontier may be incomplete, so an empty one proves nothing.
    size_t first_truncated = 0;
    for (size_t i = 1; i < trace.size(); ++i) {
      result.status = reparse();
      if (!result.ok()) return result;
      Advance advance = AdvanceFrontier(spec, (*current)[i], options,
                                        &frontier, &explored, &published);
      if (advance.truncated && first_truncated == 0) first_truncated = i;
      if (frontier.empty()) {
        result.failed_step = i;
        if (first_truncated != 0) {
          result.status = Status::ResourceExhausted(StrCat(
              "trace step ", i, " is unexplained, but the search of step ",
              first_truncated, " stopped at its budget of ",
              options.max_search_states_per_step,
              " states; raise max_search_states_per_step"));
        } else {
          result.status = Status::FailedPrecondition(
              StrCat("no action of spec '", spec.name(),
                     "' explains trace step ", i, " (checked ", i, " of ",
                     trace.size() - 1, " steps)"));
        }
        return result;
      }
      result.step_actions.push_back(std::move(advance.explaining));
    }
    result.status = Status::OK();
    return result;
  }();
  result.states_explored = explored;
  result.seconds = timer.Seconds();
  PublishTraceMetrics(result, published);
  return result;
}

}  // namespace

TraceCheckResult TraceChecker::Check(const Spec& spec,
                                     const std::vector<TraceState>& trace) const {
  const Value::InternScope scope;  // No value of the search outlives it.
  if (options_.mode == TraceCheckMode::kPresslerReparse) {
    // Serialize once; CheckModule re-parses the text before every step.
    return CheckModule(spec, TraceModuleText("Trace", spec.variables(), trace));
  }
  return CheckSteps(options_, spec, trace, nullptr, Timer(options_.clock));
}

TraceCheckResult TraceChecker::CheckModule(const Spec& spec,
                                           const std::string& module_text) const {
  const Value::InternScope scope;  // No value of the search outlives it.
  const Timer timer(options_.clock);
  auto parsed = ParseTraceModule(module_text, spec.variables().size());
  if (!parsed.ok()) {
    TraceCheckResult result;
    result.status = parsed.status();
    result.seconds = timer.Seconds();
    PublishTraceMetrics(result, 0);
    return result;
  }
  const bool reparse = options_.mode == TraceCheckMode::kPresslerReparse;
  return CheckSteps(options_, spec, *parsed, reparse ? &module_text : nullptr,
                    timer);
}

}  // namespace xmodel::tlax
