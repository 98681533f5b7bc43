// Out-of-core checking: the disk-tiered fingerprint set, frontier
// spill, and checkpoint/resume must be invisible to results. A run
// under a tight memory budget — forcing several spill generations and
// frontier segments — must produce bit-identical counts and verdicts to
// an unlimited in-memory run, at every worker count. A run killed mid-flight (here: an injected
// max_distinct_states abort) must resume from its last checkpoint and
// finish with the same final counts as an uninterrupted run. Corrupted
// checkpoint artifacts must fail resume with a clean kCorruption, never
// a crash or a silently wrong answer. See DESIGN.md "Out-of-core
// checking".

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/status.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"
#include "tlax/checkpoint.h"
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

TEST(OutOfCoreTest, LevelSyncTightBudgetMatchesUnlimited) {
  const specs::CounterSpec spec(kWideLimit);
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    CheckerOptions options;
    options.num_workers = workers;
    CheckResult base = ModelChecker(options).Check(spec);
    ASSERT_TRUE(base.status.ok()) << base.status.ToString();
    EXPECT_FALSE(base.spill_enabled);

    CheckerOptions tight = options;
    tight.memory_budget_mb = 1;
    tight.frontier_inmem_entries = 64;
    tight.spill_dir = FreshDir(common::StrCat("tight_level_w", workers));
    CheckResult result = ModelChecker(tight).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.spill_enabled);
    EXPECT_TRUE(result.spill_notice.empty()) << result.spill_notice;
    // The acceptance bar: a tight budget must actually exercise the
    // tier, not just enable it.
    EXPECT_GE(result.spill_generations, 4u);
    EXPECT_GT(result.spill_bytes, 0u);
    EXPECT_GT(result.spill_records, 0u);

    // Every field is identical regardless of where the seen-set lives;
    // the frontier spool must also have been exercised (wide middle
    // levels far exceed the 64-entry cap).
    EXPECT_EQ(result.distinct_states, base.distinct_states);
    EXPECT_EQ(result.generated_states, base.generated_states);
    EXPECT_EQ(result.fingerprint_collision_probability,
              base.fingerprint_collision_probability);
    EXPECT_FALSE(result.violation.has_value());
    EXPECT_EQ(result.diameter, base.diameter);
    EXPECT_EQ(result.frontier_peak, base.frontier_peak);
    EXPECT_GT(result.frontier_segments, 0u);
  }
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

// A state space wide enough that the tight budget seals well past the
// compaction threshold, so eviction provably merges runs mid-run, and
// counts still match the unlimited run exactly.
TEST(OutOfCoreTest, MidRunCompactionStaysExact) {
  const specs::CounterSpec spec(/*limit=*/500);
  CheckerOptions options;
  options.num_workers = 2;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();

  CheckerOptions tight = options;
  tight.memory_budget_mb = 1;
  tight.frontier_inmem_entries = 64;
  tight.spill_dir = FreshDir("compact_level");
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

// The spill family is published at every level barrier, generations
// included: a registry read from a mid-run progress report already sees
// the evictions the run has made.
TEST(OutOfCoreTest, SpillGenerationsPublishedMidRun) {
  class RegistryProbe : public obs::ProgressReporter {
   public:
    void Report(const obs::CheckerProgress& progress) override {
      if (progress.final_report) return;
      const obs::RegistrySnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      const obs::MetricSnapshot* generations =
          snap.Find("checker.spill.generations");
      if (generations != nullptr && generations->value > 0) ++seen;
    }
    int seen = 0;
  };
  obs::MetricsRegistry::Global().Reset();
  common::FakeMonotonicClock clock;
  clock.set_auto_advance_ns(2'000'000'000);  // Every poll reports.
  RegistryProbe probe;
  CheckerOptions options;
  options.memory_budget_mb = 1;
  options.spill_dir = FreshDir("midrun_generations");
  options.progress_reporter = &probe;
  options.clock = &clock;
  CheckResult result =
      ModelChecker(options).Check(specs::CounterSpec(kWideLimit));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.spill_generations, 4u);
  EXPECT_GT(probe.seen, 0);
  obs::MetricsRegistry::Global().Reset();
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

CheckerOptions CheckpointOptions(int workers, const std::string& dir) {
  CheckerOptions options;
  options.num_workers = workers;
  options.checkpoint_dir = dir;
  options.checkpoint_every_s = 0;
  return options;
}

// Runs the injected-abort phase. The run checkpoints at every level
// barrier, so at least one checkpoint always lands before the abort.
CheckResult RunInterrupted(const Spec& spec, int workers,
                           const std::string& dir_name, std::string* dir) {
  *dir = FreshDir(dir_name);
  CheckerOptions interrupted = CheckpointOptions(workers, *dir);
  interrupted.max_distinct_states = kAbortAfter;
  CheckResult partial = ModelChecker(interrupted).Check(spec);
  EXPECT_EQ(partial.status.code(), common::StatusCode::kResourceExhausted)
      << partial.status.ToString();
  return partial;
}

TEST(CheckpointTest, LevelSyncResumeMatchesUninterrupted) {
  const specs::CounterSpec spec(kResumeLimit);
  CheckerOptions plain;
  plain.num_workers = 2;
  CheckResult reference = ModelChecker(plain).Check(spec);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  std::string dir;
  CheckResult partial = RunInterrupted(spec, 2, "resume_level", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);

  CheckerOptions resume = CheckpointOptions(2, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.distinct_states, reference.distinct_states);
  EXPECT_EQ(result.generated_states, reference.generated_states);
  EXPECT_EQ(result.fingerprint_collision_probability,
            reference.fingerprint_collision_probability);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.diameter, reference.diameter);
}

TEST(CheckpointTest, ResumeRequiresCheckpointDir) {
  CheckerOptions options;
  options.resume = true;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(4));
  EXPECT_EQ(result.status.code(), common::StatusCode::kInvalidArgument)
      << result.status.ToString();
}

TEST(CheckpointTest, MissingManifestIsCleanError) {
  CheckerOptions options = CheckpointOptions(1, FreshDir("missing_manifest"));
  options.resume = true;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(4));
  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.message().find("no checkpoint manifest"),
            std::string::npos)
      << result.status.ToString();
}

// A manifest of the older per-worker layout (schema v1: a policy name,
// one frontier list per worker, banked violation candidates) is refused
// by its schema before any run or segment file is adopted, even when
// every file it names is present and intact.
TEST(CheckpointTest, ResumeRejectsV1Manifest) {
  const specs::CounterSpec spec(kResumeLimit);
  std::string dir;
  CheckResult partial = RunInterrupted(spec, 2, "resume_v1", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);

  const std::string path = dir + "/MANIFEST.json";
  std::string contents;
  ASSERT_TRUE(common::ReadFileToString(path, &contents).ok());
  common::Result<common::Json> parsed = common::Json::Parse(contents);
  ASSERT_TRUE(parsed.ok());
  const common::Json* frontier = parsed.value().Find("frontier");
  ASSERT_NE(frontier, nullptr);
  ASSERT_TRUE(frontier->is_array());
  // The segments, split between two workers' lists.
  common::Json lists = common::Json::MakeArray();
  common::Json first = common::Json::MakeArray();
  common::Json second = common::Json::MakeArray();
  const size_t half = frontier->array().size() / 2;
  for (size_t i = 0; i < frontier->array().size(); ++i) {
    (i < half ? first : second).Append(frontier->array()[i]);
  }
  lists.Append(std::move(first));
  lists.Append(std::move(second));
  common::Json v1 = common::Json::MakeObject();
  for (const auto& [key, value] : parsed.value().members()) {
    if (key == "frontier") continue;
    v1.Set(key, key == "schema" ? common::Json::Str("xmodel.checkpoint.v1")
                                : value);
  }
  v1.Set("policy", common::Json::Str("relaxed"));
  v1.Set("workers", common::Json::Int(2));
  v1.Set("frontiers", std::move(lists));
  v1.Set("candidates", common::Json::MakeArray());
  ASSERT_TRUE(common::WriteFileAtomic(path, v1.Dump()).ok());

  CheckerOptions resume = CheckpointOptions(2, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kCorruption)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find("xmodel.checkpoint.v1"),
            std::string::npos)
      << result.status.ToString();
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.distinct_states, 0u);
  EXPECT_EQ(result.generated_states, 0u);
  EXPECT_FALSE(result.violation.has_value());
}

// Manifests written before the checker lost its sleep-set reduction carry
// a "slept" counter, always 0 there (checkpointing needs spilling, which
// that reduction turned off). The reader ignores it: such a manifest
// resumes to the uninterrupted counts.
TEST(CheckpointTest, ResumeIgnoresSleptCounter) {
  const specs::CounterSpec spec(kResumeLimit);
  CheckerOptions plain;
  plain.num_workers = 2;
  CheckResult reference = ModelChecker(plain).Check(spec);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  std::string dir;
  CheckResult partial = RunInterrupted(spec, 2, "resume_slept", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);
  const std::string path = dir + "/MANIFEST.json";
  std::string contents;
  ASSERT_TRUE(common::ReadFileToString(path, &contents).ok());
  common::Result<common::Json> parsed = common::Json::Parse(contents);
  ASSERT_TRUE(parsed.ok());
  common::Json manifest = parsed.value();
  EXPECT_EQ(manifest.Find("slept"), nullptr) << "the writer drops slept";
  manifest.Set("slept", common::Json::Int(0));
  ASSERT_TRUE(common::WriteFileAtomic(path, manifest.Dump()).ok());

  CheckerOptions resume = CheckpointOptions(2, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.distinct_states, reference.distinct_states);
  EXPECT_EQ(result.generated_states, reference.generated_states);
  EXPECT_EQ(result.diameter, reference.diameter);
  EXPECT_FALSE(result.violation.has_value());
}

// Crash-safety satellite: a flipped byte anywhere in a sealed run file
// fails resume with kCorruption (the adopt path re-verifies the whole
// file checksum), never a crash or a wrong answer.
TEST(CheckpointTest, CorruptedRunFailsResumeCleanly) {
  const specs::CounterSpec spec(kResumeLimit);
  std::string dir;
  CheckResult partial = RunInterrupted(spec, 1, "resume_corrupt", &dir);
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

  CheckerOptions resume = CheckpointOptions(1, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kCorruption)
      << result.status.ToString();
}

// Manifest file names are untrusted input: resume opens them, and
// compaction and purge later delete them. A run entry that reaches a
// valid run file outside the checkpoint dir through ".." is refused.
TEST(CheckpointTest, ManifestNamesMustBePlainTierFiles) {
  const specs::CounterSpec spec(kResumeLimit);
  std::string dir;
  CheckResult partial = RunInterrupted(spec, 1, "resume_escape", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);
  const std::string path = dir + "/MANIFEST.json";
  std::string contents;
  ASSERT_TRUE(common::ReadFileToString(path, &contents).ok());
  common::Result<common::Json> parsed = common::Json::Parse(contents);
  ASSERT_TRUE(parsed.ok());
  common::Json doc = parsed.value();
  common::Json runs = *doc.Find("runs");
  ASSERT_FALSE(runs.array().empty());
  const std::string name = runs.array()[0].Find("file")->string_value();

  // Move the run out of the checkpoint dir, intact, and point at it.
  const std::string outside_dir = FreshDir("escape_target");
  std::string run;
  ASSERT_TRUE(common::ReadFileToString(dir + "/" + name, &run).ok());
  ASSERT_TRUE(common::WriteFileAtomic(outside_dir + "/" + name, run).ok());
  ASSERT_TRUE(common::RemoveFileIfExists(dir + "/" + name).ok());
  const std::string escaped = "../xmodel_ooc_escape_target/" + name;
  runs.array()[0].Set("file", common::Json::Str(escaped));
  doc.Set("runs", std::move(runs));
  ASSERT_TRUE(common::WriteFileAtomic(path, doc.Dump()).ok());

  CheckerOptions resume = CheckpointOptions(1, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kCorruption)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find(escaped), std::string::npos)
      << result.status.ToString();
  EXPECT_FALSE(result.resumed);
  EXPECT_TRUE(common::FileSize(outside_dir + "/" + name).ok());

  // The same for a frontier segment entry, beside a plain run entry.
  common::Json plain_runs = *doc.Find("runs");
  plain_runs.array()[0].Set("file", common::Json::Str(name));
  doc.Set("runs", std::move(plain_runs));
  common::Json frontier = *doc.Find("frontier");
  ASSERT_FALSE(frontier.array().empty());
  const std::string segment = "seg-000000.seg/../seg-000000.seg";
  frontier.array()[0] = common::Json::Str(segment);
  doc.Set("frontier", std::move(frontier));
  ASSERT_TRUE(common::WriteFileAtomic(path, doc.Dump()).ok());
  result = ModelChecker(resume).Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kCorruption)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find(segment), std::string::npos)
      << result.status.ToString();
}

// A killed run can seal frontier segments and runs after its last
// manifest. --resume deletes both kinds of orphan, and the counts are
// those of an uninterrupted run.
TEST(CheckpointTest, ResumeDropsOrphanSegmentsAndRuns) {
  const specs::CounterSpec spec(kResumeLimit);
  CheckerOptions plain;
  plain.num_workers = 2;
  CheckResult reference = ModelChecker(plain).Check(spec);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  std::string dir;
  CheckResult partial = RunInterrupted(spec, 2, "resume_orphans", &dir);
  ASSERT_GE(partial.checkpoints_written, 1u);
  const std::string orphan_segment = dir + "/seg-999999.seg";
  const std::string orphan_run = dir + "/run-999999.run";
  ASSERT_TRUE(common::WriteFileAtomic(orphan_segment, "sealed late").ok());
  ASSERT_TRUE(common::WriteFileAtomic(orphan_run, "sealed late").ok());

  CheckerOptions resume = CheckpointOptions(2, dir);
  resume.resume = true;
  CheckResult result = ModelChecker(resume).Check(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.distinct_states, reference.distinct_states);
  EXPECT_EQ(result.generated_states, reference.generated_states);
  EXPECT_EQ(result.diameter, reference.diameter);
  EXPECT_EQ(common::FileSize(orphan_segment).status().code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(common::FileSize(orphan_run).status().code(),
            common::StatusCode::kNotFound);
}

double MetricValue(const obs::RegistrySnapshot& snap,
                   const std::string& name) {
  const obs::MetricSnapshot* metric = snap.Find(name);
  return metric == nullptr ? 0 : metric->value;
}

// Checks `spec` under `options` against a freshly reset registry and
// expects every checker.* counter and gauge that mirrors a CheckResult
// field to equal it. `prior` is the manifest a resumed run starts from
// (empty otherwise): the levels and checkpoint counters count only this
// process, while the states totals continue from the manifest's.
CheckResult CheckMetricsEqualResult(const Spec& spec,
                                    const CheckerOptions& options,
                                    const CheckpointManifest& prior = {}) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  CheckResult r = ModelChecker(options).Check(spec);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const auto expect = [&snap](const std::string& name, double want) {
    EXPECT_EQ(MetricValue(snap, name), want) << name;
  };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  expect("checker.runs.completed", 1);
  expect("checker.violations.found", r.violation.has_value() ? 1 : 0);
  expect("checker.states.generated", d(r.generated_states));
  expect("checker.states.distinct", d(r.distinct_states));
  expect("checker.levels.completed",
         d(r.levels_completed - prior.levels_completed));
  expect("checker.frontier.peak", d(r.frontier_peak));
  expect("checker.workers.used", r.workers_used);
  expect("checker.fingerprint.load", r.fingerprint_load);
  expect("checker.fingerprint.collision_probability",
         r.fingerprint_collision_probability);
  expect("checker.run.seconds", r.seconds);
  expect("checker.barrier.settle_ms", r.barrier_settle_ms);
  expect("checker.idle_fraction", r.idle_fraction);
  for (int w = 0; w < r.workers_used; ++w) {
    const size_t i = static_cast<size_t>(w);
    expect(common::StrCat("checker.worker", w, ".busy_ms"),
           r.worker_busy_ms[i]);
    expect(common::StrCat("checker.worker", w, ".barrier_wait_ms"),
           r.worker_barrier_wait_ms[i]);
  }
  expect("checker.spill.bytes", d(r.spill_bytes));
  expect("checker.spill.frontier_segments", d(r.frontier_segments));
  expect("checker.spill.compact.count", d(r.spill_compactions));
  expect("checker.spill.runs", d(r.spill_runs));
  expect("checker.spill.generations", d(r.spill_generations));
  expect("checker.spill.probe_ms", r.spill_probe_ms);
  expect("checker.spill.merge_ms", r.spill_merge_ms);
  expect("checker.checkpoint.writes",
         d(r.checkpoints_written - prior.checkpoints));
  registry.Reset();
  return r;
}

TEST(OutOfCoreTest, CheckerMetricsEqualCheckResult) {
  // A plain in-memory run.
  const specs::CounterSpec small(kResumeLimit);
  CheckerOptions plain;
  plain.num_workers = 2;
  const CheckResult reference = CheckMetricsEqualResult(small, plain);
  EXPECT_FALSE(reference.spill_enabled);

  // A tight budget that spools frontier segments and compacts runs.
  CheckerOptions tight = plain;
  tight.memory_budget_mb = 1;
  tight.frontier_inmem_entries = 64;
  tight.spill_dir = FreshDir("metrics_tight");
  const CheckResult spilled =
      CheckMetricsEqualResult(specs::CounterSpec(/*limit=*/500), tight);
  EXPECT_GE(spilled.spill_compactions, 1u);
  EXPECT_GT(spilled.frontier_segments, 0u);

  // A checkpointed run.
  const CheckResult written = CheckMetricsEqualResult(
      small, CheckpointOptions(2, FreshDir("metrics_checkpointed")));
  EXPECT_GE(written.checkpoints_written, 1u);

  // A run resumed from an interrupted one.
  std::string dir;
  RunInterrupted(small, 2, "metrics_resumed", &dir);
  CheckpointManifest manifest;
  ASSERT_TRUE(ReadCheckpointManifest(dir, &manifest).ok());
  ASSERT_GT(manifest.levels_completed, 0u);
  CheckerOptions resume = CheckpointOptions(2, dir);
  resume.resume = true;
  const CheckResult resumed = CheckMetricsEqualResult(small, resume, manifest);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GT(resumed.checkpoints_written, manifest.checkpoints);
  EXPECT_EQ(resumed.generated_states, reference.generated_states);
  EXPECT_EQ(resumed.distinct_states, reference.distinct_states);
}

}  // namespace
}  // namespace xmodel::tlax
