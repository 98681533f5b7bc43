// Determinism of the parallel checker: every CheckResult field that the
// level-synchronous design promises to be worker-count-invariant —
// distinct states, generated states, diameter, frontier peak, violation
// kind, and the full counterexample trace (length AND content) — must be
// bit-identical at 1, 2, and 4 workers, on clean specs and on
// deliberately violating configurations. See DESIGN.md "Parallel
// checking" for why this holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "specs/array_ot_spec.h"
#include "specs/locking_spec.h"
#include "specs/raft_mongo_spec.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"
#include "tlax/explore.h"
#include "tlax/spec.h"
#include "tlax/value.h"

namespace xmodel::tlax {
namespace {

// Checks `spec` at several worker counts and asserts every promised
// field matches the single-worker baseline exactly.
void ExpectWorkerInvariant(const Spec& spec, CheckerOptions options = {}) {
  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  EXPECT_EQ(base.workers_used, 1);

  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << spec.name() << " with " << workers
                                    << " workers");
    options.num_workers = workers;
    CheckResult result = ModelChecker(options).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.workers_used, workers);

    EXPECT_EQ(result.distinct_states, base.distinct_states);
    EXPECT_EQ(result.generated_states, base.generated_states);
    EXPECT_EQ(result.diameter, base.diameter);
    EXPECT_EQ(result.frontier_peak, base.frontier_peak);
    EXPECT_EQ(result.fingerprint_collision_probability,
              base.fingerprint_collision_probability);

    ASSERT_EQ(result.violation.has_value(), base.violation.has_value());
    if (base.violation.has_value()) {
      EXPECT_EQ(result.violation->kind, base.violation->kind);
      ASSERT_EQ(result.violation->trace.size(), base.violation->trace.size())
          << "counterexamples must stay minimal and identical";
      for (size_t i = 0; i < base.violation->trace.size(); ++i) {
        EXPECT_EQ(result.violation->trace[i].action,
                  base.violation->trace[i].action)
            << "trace step " << i;
        EXPECT_EQ(result.violation->trace[i].state,
                  base.violation->trace[i].state)
            << "trace step " << i;
      }
    }
  }
}

// The level barrier builds the next level by sorting each worker's run and
// merging them in parallel; the result must be exactly a sort of the
// concatenation. Keys collide across runs (EventKey saturates a parent's
// successor ordinal) and, rarely, a (key, fingerprint) pair repeats; runs
// may be empty.
TEST(DeterminismTest, MergedLevelEqualsSortOfConcatenation) {
  using internal::LevelEntry;
  std::mt19937_64 rng(20261017);
  for (int round = 0; round < 40; ++round) {
    const size_t num_runs = 1 + rng() % 5;
    std::vector<std::vector<LevelEntry>> runs(num_runs);
    std::vector<LevelEntry> all;
    for (std::vector<LevelEntry>& run : runs) {
      const size_t size = rng() % 4 == 0 ? 0 : rng() % 300;
      for (size_t i = 0; i < size; ++i) {
        LevelEntry e;
        e.key = rng() % 64;  // Small key space: many cross-run collisions.
        e.fp = rng() % 8 == 0 ? e.key : rng();
        e.depth = static_cast<int64_t>(i);
        run.push_back(e);
        all.push_back(e);
      }
    }
    std::sort(all.begin(), all.end(),
              [](const LevelEntry& a, const LevelEntry& b) {
                return a.key != b.key ? a.key < b.key : a.fp < b.fp;
              });
    for (int workers : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "round " << round << ", " << workers << " workers");
      common::WorkerPool pool(workers);
      const std::vector<LevelEntry*> order =
          internal::MergeSettledRuns(runs, workers == 1 ? nullptr : &pool);
      ASSERT_EQ(order.size(), all.size());
      for (size_t i = 0; i < order.size(); ++i) {
        ASSERT_EQ(order[i]->key, all[i].key) << "position " << i;
        ASSERT_EQ(order[i]->fp, all[i].fp) << "position " << i;
      }
      std::vector<const LevelEntry*> distinct(order.begin(), order.end());
      std::sort(distinct.begin(), distinct.end());
      EXPECT_EQ(std::unique(distinct.begin(), distinct.end()),
                distinct.end())
          << "every entry appears exactly once";
    }
  }
}

TEST(DeterminismTest, RaftMongoDetailed) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  ExpectWorkerInvariant(specs::RaftMongoSpec(config));
}

TEST(DeterminismTest, RaftMongoAbstractWithSymmetry) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kAbstract;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  config.use_symmetry = true;
  ExpectWorkerInvariant(specs::RaftMongoSpec(config));
}

TEST(DeterminismTest, RaftMongoDetailedWithSymmetry) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  config.use_symmetry = true;
  const specs::RaftMongoSpec spec(config);
  ExpectWorkerInvariant(spec);
  // One representative per orbit of the 113,664 unreduced states.
  const CheckResult result = ModelChecker().Check(spec);
  EXPECT_EQ(result.distinct_states, 19'473u);
  EXPECT_EQ(result.generated_states, 91'877u);
}

TEST(DeterminismTest, LockingSpec) {
  specs::LockingConfig config;
  config.num_contexts = 2;
  CheckerOptions options;
  options.check_deadlock = true;
  ExpectWorkerInvariant(specs::LockingSpec(config), options);
}

TEST(DeterminismTest, ArrayOt) {
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  ExpectWorkerInvariant(specs::ArrayOtSpec(config));
}

TEST(DeterminismTest, ArrayOtWithInjectedTranscriptionError) {
  // The §5.1.1 deliberate transcription error: the checker must find a
  // violation, and the counterexample must not depend on worker count.
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  config.inject_transcription_error = true;
  specs::ArrayOtSpec spec(config);
  CheckerOptions options;
  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.violation.has_value())
      << "the injected transcription error must be caught";
  ExpectWorkerInvariant(spec);
}

TEST(DeterminismTest, CounterViolation) {
  // Mid-space invariant violation: many same-level candidates compete, so
  // this exercises the minimal-key candidate selection directly.
  ExpectWorkerInvariant(specs::CounterSpec(/*limit=*/30, /*violate_at=*/17));
}

TEST(DeterminismTest, DieHardMinimalCounterexample) {
  specs::DieHardSpec spec;
  ExpectWorkerInvariant(spec);
  // The classic puzzle answer: 7 states, at every worker count.
  for (int workers : {1, 2, 4}) {
    CheckerOptions options;
    options.num_workers = workers;
    CheckResult result = ModelChecker(options).Check(spec);
    ASSERT_TRUE(result.violation.has_value());
    EXPECT_EQ(result.violation->trace.size(), 7u);
  }
}

// The cap is tested at the level barrier, so a cut run finishes the level
// that crossed it and reports the same counts at every worker count. On
// the E1 bounds (terms <= 3, oplog <= 2) the level that crosses 20,000
// states spans many insert batches, so a cap tested mid-level stopped the
// workers at schedule-dependent points.
TEST(DeterminismTest, ResourceExhaustionIsWorkerInvariant) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 3;
  config.max_oplog_len = 2;
  const specs::RaftMongoSpec spec(config);
  CheckerOptions options;
  options.max_distinct_states = 20'000;
  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  EXPECT_EQ(base.status.code(), common::StatusCode::kResourceExhausted);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    options.num_workers = workers;
    CheckResult result = ModelChecker(options).Check(spec);
    EXPECT_EQ(result.status.code(), common::StatusCode::kResourceExhausted);
    EXPECT_EQ(result.distinct_states, base.distinct_states);
    EXPECT_EQ(result.generated_states, base.generated_states);
    EXPECT_EQ(result.diameter, base.diameter);
  }
}

TEST(DeterminismTest, ZeroMeansHardwareConcurrency) {
  CheckerOptions options;
  options.num_workers = 0;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(4));
  EXPECT_GE(result.workers_used, 1);
}

TEST(DeterminismTest, RecordGraphRunsAtFullParallelism) {
  // The former record_graph → 1 worker clamp is gone: graph-recording
  // runs honor num_workers (byte-identity of the recorded graph is
  // covered by tlax_graph_determinism_test).
  CheckerOptions options;
  options.num_workers = 4;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(2));
  EXPECT_EQ(result.workers_used, 4);
  ASSERT_NE(result.graph, nullptr);
  EXPECT_EQ(result.distinct_states, 9u);
  EXPECT_EQ(result.graph->num_states(), 9u);
}

// Interning must be semantically invisible: repeated checks of the same
// spec — first against a cold(er) intern table, then against one warmed by
// the previous run — must produce bit-identical CheckResults, including
// violation traces. A hash-consing bug (wrong dedup, cross-talk between
// structurally distinct values) would surface here as a drifting count.
void ExpectInterningInvariant(const Spec& spec, CheckerOptions options = {},
                              bool expect_violation = false) {
  options.num_workers = 1;
  CheckResult cold = ModelChecker(options).Check(spec);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  CheckResult warm = ModelChecker(options).Check(spec);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();

  EXPECT_EQ(warm.distinct_states, cold.distinct_states);
  EXPECT_EQ(warm.generated_states, cold.generated_states);
  EXPECT_EQ(warm.diameter, cold.diameter);
  EXPECT_EQ(warm.frontier_peak, cold.frontier_peak);
  EXPECT_EQ(warm.fingerprint_collision_probability,
            cold.fingerprint_collision_probability);
  ASSERT_EQ(warm.violation.has_value(), cold.violation.has_value());
  if (expect_violation) {
    ASSERT_TRUE(cold.violation.has_value());
  }
  if (cold.violation.has_value()) {
    EXPECT_EQ(warm.violation->kind, cold.violation->kind);
    ASSERT_EQ(warm.violation->trace.size(), cold.violation->trace.size());
    for (size_t i = 0; i < cold.violation->trace.size(); ++i) {
      EXPECT_EQ(warm.violation->trace[i].action,
                cold.violation->trace[i].action);
      EXPECT_EQ(warm.violation->trace[i].state,
                cold.violation->trace[i].state);
    }
  }
}

TEST(InterningDeterminismTest, RaftMongoDetailed) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  ExpectInterningInvariant(specs::RaftMongoSpec(config));
}

TEST(InterningDeterminismTest, LockingSpec) {
  specs::LockingConfig config;
  config.num_contexts = 2;
  CheckerOptions options;
  options.check_deadlock = true;
  ExpectInterningInvariant(specs::LockingSpec(config), options);
}

TEST(InterningDeterminismTest, ArrayOtWithInjectedTranscriptionError) {
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  config.inject_transcription_error = true;
  ExpectInterningInvariant(specs::ArrayOtSpec(config), {},
                           /*expect_violation=*/true);
}

TEST(InterningDeterminismTest, InternLiveRepHighWaterMark) {
  // Regression guard against intern-table leaks: a bounded RaftMongo
  // check must stay far below this live-rep high-water mark (measured
  // ~1.3k reps for the whole bench suite — the value universe is tiny
  // compared to the state space), and a REPEATED identical check must
  // allocate zero new reps, because every value it builds is already
  // canonical. Runs under the ASan CI job too.
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  specs::RaftMongoSpec spec(config);

  const Value::InternStats before = Value::GetInternStats();
  CheckResult first = ModelChecker().Check(spec);
  ASSERT_TRUE(first.status.ok());
  const Value::InternStats mid = Value::GetInternStats();
  EXPECT_LT(mid.live - before.live, 50'000u)
      << "intern table grew far beyond the recorded high-water mark — "
         "likely a leak of per-state unique reps";

  CheckResult second = ModelChecker().Check(spec);
  ASSERT_TRUE(second.status.ok());
  const Value::InternStats after = Value::GetInternStats();
  EXPECT_EQ(after.misses, mid.misses)
      << "a repeated identical check interned new reps — values are not "
         "being deduplicated";
  EXPECT_EQ(second.distinct_states, first.distinct_states);
}

}  // namespace
}  // namespace xmodel::tlax
