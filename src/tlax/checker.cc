#include "tlax/checker.h"

#include "tlax/explore.h"

namespace xmodel::tlax {

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
  return internal::Engine(options_, spec).Run();
}

}  // namespace xmodel::tlax
