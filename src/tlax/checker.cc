#include "tlax/checker.h"

#include <cstring>
#include <utility>

#include "obs/eventlog.h"
#include "tlax/explore.h"

namespace xmodel::tlax {

const char* ExplorationPolicyName(ExplorationPolicy policy) {
  return policy == ExplorationPolicy::kRelaxed ? "relaxed" : "level";
}

bool ParseExplorationPolicy(const std::string& text,
                            ExplorationPolicy* out) {
  if (text == "level") {
    *out = ExplorationPolicy::kLevelSync;
    return true;
  }
  if (text == "relaxed") {
    *out = ExplorationPolicy::kRelaxed;
    return true;
  }
  return false;
}

bool ParseMemoryBudgetMb(const std::string& text, uint64_t* out) {
  constexpr uint64_t kMaxMb = (uint64_t{1} << 44) - 1;
  if (text.empty()) return false;
  uint64_t mb = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    mb = mb * 10 + static_cast<uint64_t>(c - '0');
    if (mb > kMaxMb) return false;
  }
  *out = mb;
  return true;
}

CheckResult ModelChecker::Check(const Spec& spec) const {
  // Resolve the exploration policy. Two option combinations require the
  // level-synchronous facade and clamp a relaxed request back to it,
  // with the reason surfaced in CheckResult::policy_notice (and as a
  // warn event) rather than silently changing semantics:
  //   - record_graph: node ids are assigned from the settled discovery
  //     order at level barriers (StateGraph::SettleLevel); without
  //     barriers the recorded graph would not be reproducible.
  //   - max_depth: a depth bound prunes by BFS level; relaxed
  //     first-discovery depths exceed BFS depths, which would make even
  //     the distinct-state count schedule-dependent.
  CheckerOptions options = options_;
  std::string notice;
  if (options.exploration == ExplorationPolicy::kRelaxed) {
    if (options.record_graph) {
      notice =
          "record_graph needs level-barrier graph settling; "
          "falling back to level-sync exploration";
    } else if (options.max_depth >= 0) {
      notice =
          "max_depth bounds are defined by BFS levels; "
          "falling back to level-sync exploration";
    }
    if (!notice.empty()) {
      options.exploration = ExplorationPolicy::kLevelSync;
      obs::EventLog* events = options.event_log != nullptr
                                  ? options.event_log
                                  : &obs::EventLog::Global();
      if (events->enabled()) {
        events->Emit(obs::EventSeverity::kWarn, "checker", "policy.clamped",
                     {{"requested", "relaxed"},
                      {"used", "level"},
                      {"reason", notice}});
      }
    }
  }

  CheckResult result =
      options.exploration == ExplorationPolicy::kRelaxed
          ? internal::RelaxedEngine(options, spec).Run()
          : internal::LevelSyncEngine(options, spec).Run();
  result.policy_notice = std::move(notice);
  return result;
}

}  // namespace xmodel::tlax
