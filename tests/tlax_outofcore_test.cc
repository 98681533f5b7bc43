// Out-of-core checking: the disk-tiered fingerprint set, frontier
// spill, and checkpoint/resume must be invisible to results. A run
// under a tight memory budget — forcing several spill generations and
// frontier segments — must produce bit-identical counts and verdicts to
// an unlimited in-memory run, at every worker count and under both
// exploration policies. A run killed mid-flight (here: an injected
// max_distinct_states abort) must resume from its last checkpoint and
// finish with the same final counts as an uninterrupted run. Corrupted
// checkpoint artifacts must fail resume with a clean kCorruption, never
// a crash or a silently wrong answer. See DESIGN.md "Out-of-core
// checking".

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/status.h"
#include "common/strings.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"
#include "tlax/spec.h"

namespace xmodel::tlax {
namespace {

// A per-test scratch directory under the gtest temp root, emptied of
// any leftovers from a previous run of this binary.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "xmodel_ooc_" + name;
  std::vector<std::string> files;
  if (common::ListDirFiles(dir, &files).ok()) {
    for (const std::string& file : files) {
      common::Status status = common::RemoveFileIfExists(dir + "/" + file);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
  common::Status status = common::EnsureDir(dir);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return dir;
}

// CounterSpec(360) has 361*361 = 130321 distinct states across 721 BFS
// levels — enough that a 1 MB hot-table budget (32-byte slots filled to
// at most 7/8, so roughly 25K records per generation) forces five
// eviction generations, and a 64-entry in-memory frontier cap forces
// level spooling on the wide middle levels.
constexpr int64_t kWideLimit = 360;

void ExpectSpillInvisible(ExplorationPolicy policy) {
  const specs::CounterSpec spec(kWideLimit);
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message()
                 << ExplorationPolicyName(policy) << " with " << workers
                 << " workers");
    CheckerOptions options;
    options.exploration = policy;
    options.num_workers = workers;
    CheckResult base = ModelChecker(options).Check(spec);
    ASSERT_TRUE(base.status.ok()) << base.status.ToString();
    EXPECT_FALSE(base.spill_enabled);

    CheckerOptions tight = options;
    tight.memory_budget_mb = 1;
    tight.frontier_inmem_entries = 64;
    tight.spill_dir =
        FreshDir(common::StrCat("tight_", ExplorationPolicyName(policy), "_w",
                                workers));
    CheckResult result = ModelChecker(tight).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.spill_enabled);
    EXPECT_TRUE(result.spill_notice.empty()) << result.spill_notice;
    // The acceptance bar: a tight budget must actually exercise the
    // tier, not just enable it.
    EXPECT_GE(result.spill_generations, 4u);
    EXPECT_GT(result.spill_bytes, 0u);
    EXPECT_GT(result.spill_records, 0u);

    // Both policies promise exact distinct/generated counts and
    // verdicts regardless of where the seen-set lives.
    EXPECT_EQ(result.distinct_states, base.distinct_states);
    EXPECT_EQ(result.generated_states, base.generated_states);
    EXPECT_EQ(result.fingerprint_collision_probability,
              base.fingerprint_collision_probability);
    EXPECT_FALSE(result.violation.has_value());
    if (policy == ExplorationPolicy::kLevelSync) {
      // Level-sync additionally promises bit-identical order-dependent
      // fields; the frontier spool must also have been exercised (wide
      // middle levels far exceed the 64-entry cap).
      EXPECT_EQ(result.diameter, base.diameter);
      EXPECT_EQ(result.frontier_peak, base.frontier_peak);
      EXPECT_GT(result.frontier_segments, 0u);
    }
  }
}

TEST(OutOfCoreTest, LevelSyncTightBudgetMatchesUnlimited) {
  ExpectSpillInvisible(ExplorationPolicy::kLevelSync);
}

TEST(OutOfCoreTest, RelaxedTightBudgetMatchesUnlimited) {
  ExpectSpillInvisible(ExplorationPolicy::kRelaxed);
}

// Counterexample traces are rebuilt by walking predecessor records, and
// under spilling most of those records live in the on-disk sidecar. The
// rebuilt trace must match the in-memory one exactly.
TEST(OutOfCoreTest, LevelSyncViolationTraceIdenticalUnderSpill) {
  const specs::CounterSpec spec(kWideLimit, /*violate_at=*/300);
  CheckerOptions options;
  options.num_workers = 2;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  ASSERT_TRUE(base.violation.has_value());

  CheckerOptions tight = options;
  tight.memory_budget_mb = 1;
  tight.frontier_inmem_entries = 64;
  tight.spill_dir = FreshDir("trace_level");
  CheckResult result = ModelChecker(tight).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.spill_enabled);
  EXPECT_GT(result.spill_records, 0u);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, base.violation->kind);
  EXPECT_EQ(result.distinct_states, base.distinct_states);
  ASSERT_EQ(result.violation->trace.size(), base.violation->trace.size());
  for (size_t i = 0; i < base.violation->trace.size(); ++i) {
    EXPECT_EQ(result.violation->trace[i].action,
              base.violation->trace[i].action)
        << "trace step " << i;
  }
}

TEST(OutOfCoreTest, RelaxedViolationVerdictIdenticalUnderSpill) {
  const specs::CounterSpec spec(kWideLimit, /*violate_at=*/300);
  CheckerOptions options;
  options.exploration = ExplorationPolicy::kRelaxed;
  options.num_workers = 2;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  ASSERT_TRUE(base.violation.has_value());

  CheckerOptions tight = options;
  tight.memory_budget_mb = 1;
  tight.frontier_inmem_entries = 64;
  tight.spill_dir = FreshDir("trace_relaxed");
  CheckResult result = ModelChecker(tight).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.spill_enabled);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, base.violation->kind);
  // Relaxed violating runs drain the whole reachable space, so distinct
  // stays invariant even on violations.
  EXPECT_EQ(result.distinct_states, base.distinct_states);
}

// A state space wide enough that the tight budget seals well past the
// compaction threshold, so eviction provably merges runs mid-run — under
// relaxed, while the other worker keeps probing — and counts still match
// the unlimited run exactly.
TEST(OutOfCoreTest, MidRunCompactionStaysExact) {
  const specs::CounterSpec spec(/*limit=*/500);
  for (ExplorationPolicy policy :
       {ExplorationPolicy::kLevelSync, ExplorationPolicy::kRelaxed}) {
    SCOPED_TRACE(ExplorationPolicyName(policy));
    CheckerOptions options;
    options.exploration = policy;
    options.num_workers = 2;
    CheckResult base = ModelChecker(options).Check(spec);
    ASSERT_TRUE(base.status.ok()) << base.status.ToString();

    CheckerOptions tight = options;
    tight.memory_budget_mb = 1;
    tight.frontier_inmem_entries = 64;
    tight.spill_dir = FreshDir(
        common::StrCat("compact_", ExplorationPolicyName(policy)));
    CheckResult result = ModelChecker(tight).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.spill_enabled);
    EXPECT_GE(result.spill_compactions, 1u)
        << "the budget must force enough generations to trip compaction";
    EXPECT_EQ(result.distinct_states, base.distinct_states);
    EXPECT_EQ(result.generated_states, base.generated_states);
    EXPECT_EQ(result.fingerprint_collision_probability,
              base.fingerprint_collision_probability);
    EXPECT_FALSE(result.violation.has_value());
  }
}

// Spilling silently steps aside for modes that need full in-memory
// state, with a notice explaining why.
TEST(OutOfCoreTest, SpillGatedOffUnderRecordGraph) {
  const specs::CounterSpec spec(/*limit=*/10);
  CheckerOptions options;
  options.record_graph = true;
  options.memory_budget_mb = 1;
  CheckResult result = ModelChecker(options).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.spill_enabled);
  EXPECT_NE(result.spill_notice.find("record_graph"), std::string::npos)
      << result.spill_notice;
  EXPECT_EQ(result.distinct_states, 121u);
}

// ---------------------------------------------------------------------
// Checkpoint/resume.
//
// The interrupted run uses an injected abort — a max_distinct_states
// ceiling trips ResourceExhausted partway through — which exercises the
// same recovery path as a SIGKILL: the next process sees only what the
// last durable manifest named. checkpoint_every_s = 0 checkpoints at
// every opportunity so the abort always lands past several checkpoints.

// 61*61 = 3721 states over 121 levels: big enough for several
// checkpoints before a 1500-state abort, small enough that the durable
// (fsynced) checkpoint-per-level cadence stays fast.
constexpr int64_t kResumeLimit = 60;
constexpr uint64_t kAbortAfter = 1500;

CheckerOptions CheckpointOptions(ExplorationPolicy policy, int workers,
                                 const std::string& dir) {
  CheckerOptions options;
  options.exploration = policy;
  options.num_workers = workers;
  options.checkpoint_dir = dir;
  options.checkpoint_every_s = 0;
  return options;
}

// Runs the injected-abort phase. Level-sync checkpoints at every level
// barrier, so at least one checkpoint always lands before the abort.
// Relaxed checkpoints at a worker rendezvous, and under heavy scheduler
// load the abort can occasionally win the race to the first rendezvous
// (exiting workers cancel the pending request) — retry with a fresh
// directory until a checkpoint lands.
CheckResult RunInterrupted(const Spec& spec, ExplorationPolicy policy,
                           int workers, const std::string& dir_name,
                           std::string* dir) {
  CheckResult partial;
  for (int attempt = 0; attempt < 10; ++attempt) {
    *dir = FreshDir(dir_name);
    CheckerOptions interrupted = CheckpointOptions(policy, workers, *dir);
    interrupted.max_distinct_states = kAbortAfter;
    partial = ModelChecker(interrupted).Check(spec);
    EXPECT_EQ(partial.status.code(), common::StatusCode::kResourceExhausted)
        << partial.status.ToString();
    if (partial.checkpoints_written >= 1) break;
  }
  return partial;
}

void ExpectResumeMatchesUninterrupted(ExplorationPolicy policy) {
  const specs::CounterSpec spec(kResumeLimit);
  CheckerOptions plain;
  plain.exploration = policy;
  plain.num_workers = 2;
  CheckResult reference = ModelChecker(plain).Check(spec);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  std::string dir;
  CheckResult partial = RunInterrupted(
      spec, policy, 2, common::StrCat("resume_", ExplorationPolicyName(policy)),
      &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);

  CheckerOptions resume = CheckpointOptions(policy, 2, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.distinct_states, reference.distinct_states);
  EXPECT_EQ(result.generated_states, reference.generated_states);
  EXPECT_EQ(result.fingerprint_collision_probability,
            reference.fingerprint_collision_probability);
  EXPECT_FALSE(result.violation.has_value());
  if (policy == ExplorationPolicy::kLevelSync) {
    EXPECT_EQ(result.diameter, reference.diameter);
  }
}

TEST(CheckpointTest, LevelSyncResumeMatchesUninterrupted) {
  ExpectResumeMatchesUninterrupted(ExplorationPolicy::kLevelSync);
}

TEST(CheckpointTest, RelaxedResumeMatchesUninterrupted) {
  ExpectResumeMatchesUninterrupted(ExplorationPolicy::kRelaxed);
}

TEST(CheckpointTest, ResumeRequiresCheckpointDir) {
  CheckerOptions options;
  options.resume = true;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(4));
  EXPECT_EQ(result.status.code(), common::StatusCode::kInvalidArgument)
      << result.status.ToString();
}

TEST(CheckpointTest, MissingManifestIsCleanError) {
  CheckerOptions options =
      CheckpointOptions(ExplorationPolicy::kLevelSync, 1,
                        FreshDir("missing_manifest"));
  options.resume = true;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(4));
  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.message().find("no checkpoint manifest"),
            std::string::npos)
      << result.status.ToString();
}

TEST(CheckpointTest, RelaxedResumeRequiresSameWorkerCount) {
  const specs::CounterSpec spec(kResumeLimit);
  std::string dir;
  CheckResult partial = RunInterrupted(spec, ExplorationPolicy::kRelaxed, 2,
                                       "resume_workers", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);

  CheckerOptions resume = CheckpointOptions(ExplorationPolicy::kRelaxed, 4, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kInvalidArgument)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find("workers"), std::string::npos);
}

// A checkpoint whose policy doesn't match the resuming run's policy is
// rejected rather than misinterpreted.
TEST(CheckpointTest, ResumeRejectsPolicyMismatch) {
  const specs::CounterSpec spec(kResumeLimit);
  std::string dir;
  CheckResult partial = RunInterrupted(spec, ExplorationPolicy::kLevelSync, 2,
                                       "resume_policy", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);

  CheckerOptions resume = CheckpointOptions(ExplorationPolicy::kRelaxed, 2, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kInvalidArgument)
      << result.status.ToString();
}

// Crash-safety satellite: a flipped byte anywhere in a sealed run file
// fails resume with kCorruption (the adopt path re-verifies the whole
// file checksum), never a crash or a wrong answer.
TEST(CheckpointTest, CorruptedRunFailsResumeCleanly) {
  const specs::CounterSpec spec(kResumeLimit);
  std::string dir;
  CheckResult partial = RunInterrupted(spec, ExplorationPolicy::kLevelSync, 1,
                                       "resume_corrupt", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);

  std::vector<std::string> files;
  ASSERT_TRUE(common::ListDirFiles(dir, &files).ok());
  int corrupted = 0;
  for (const std::string& file : files) {
    if (file.rfind("run-", 0) != 0) continue;
    const std::string path = dir + "/" + file;
    std::string contents;
    ASSERT_TRUE(common::ReadFileToString(path, &contents).ok());
    ASSERT_FALSE(contents.empty());
    contents[contents.size() / 2] ^= 0x40;
    ASSERT_TRUE(common::WriteFileAtomic(path, contents).ok());
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0) << "checkpoint left no spill runs to corrupt";

  CheckerOptions resume =
      CheckpointOptions(ExplorationPolicy::kLevelSync, 1, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kCorruption)
      << result.status.ToString();
}

}  // namespace
}  // namespace xmodel::tlax
