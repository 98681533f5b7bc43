#include "tlax/checker.h"

#include <utility>

#include "obs/eventlog.h"
#include "tlax/explore.h"

namespace xmodel::tlax {

const char* ExplorationPolicyName(ExplorationPolicy policy) {
  return policy == ExplorationPolicy::kRelaxed ? "relaxed" : "level";
}

common::FlagParser CheckerFlags(unsigned accepted, CheckerOptions* options) {
  return [accepted, options](std::string_view arg, std::string* error) {
    using common::FlagResult;
    std::string_view value;
    auto is = [&](unsigned bit, std::string_view name) {
      return (accepted & bit) != 0 && common::MatchFlag(arg, name, &value);
    };
    if (is(kWorkersFlag, "--workers")) {
      return common::ParseIntegerFlag("--workers", value, 0, 4096,
                                      &options->num_workers, error);
    }
    if (is(kExploreFlag, "--explore")) {
      if (value == "level" || value == "relaxed") {
        options->exploration = value == "level" ? ExplorationPolicy::kLevelSync
                                                : ExplorationPolicy::kRelaxed;
        return FlagResult::kParsed;
      }
      *error = common::StrCat("--explore must be 'level' or 'relaxed', got '",
                              value, "'");
      return FlagResult::kBad;
    }
    if (is(kMemBudgetFlag, "--mem-budget-mb")) {
      return common::ParseIntegerFlag("--mem-budget-mb", value, uint64_t{0},
                                      kMaxMemoryBudgetMb,
                                      &options->memory_budget_mb, error);
    }
    if (is(kSpillDirFlag, "--spill-dir")) {
      return common::ParsePathFlag("--spill-dir", value, &options->spill_dir,
                                   error);
    }
    if (is(kCheckpointDirFlag, "--checkpoint-dir")) {
      return common::ParsePathFlag("--checkpoint-dir", value,
                                   &options->checkpoint_dir, error);
    }
    if (is(kCheckpointEveryFlag, "--checkpoint-every-s")) {
      return common::ParseIntegerFlag("--checkpoint-every-s", value,
                                      int64_t{0}, int64_t{7 * 24 * 3600},
                                      &options->checkpoint_every_s, error);
    }
    if ((accepted & kResumeFlag) == 0 || arg != "--resume") {
      return FlagResult::kUnknown;
    }
    options->resume = true;
    return FlagResult::kParsed;
  };
}

CheckResult ModelChecker::Check(const Spec& spec) const {
  // Resolve the exploration policy. record_graph requires the
  // level-synchronous facade and clamps a relaxed request back to it,
  // with the reason surfaced in CheckResult::policy_notice (and as a
  // warn event) rather than silently changing semantics: node ids are
  // assigned from the settled discovery order at level barriers
  // (StateGraph::SetNode); without barriers the recorded graph would not
  // be reproducible.
  CheckerOptions options = options_;
  std::string notice;
  if (options.exploration == ExplorationPolicy::kRelaxed &&
      options.record_graph) {
    notice =
        "record_graph needs level-barrier graph settling; "
        "falling back to level-sync exploration";
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

  CheckResult result =
      options.exploration == ExplorationPolicy::kRelaxed
          ? internal::RelaxedEngine(options, spec).Run()
          : internal::LevelSyncEngine(options, spec).Run();
  result.policy_notice = std::move(notice);
  return result;
}

}  // namespace xmodel::tlax
