// Verdict invariance of the relaxed work-stealing exploration policy:
// the contract (DESIGN.md "Exploration policies") is that relaxed mode
// reports the identical distinct-state count and violation verdict as
// deterministic level-sync, at any worker count, on clean and violating
// specs alike — only order-dependent fields (diameter, frontier peak,
// trace shape, POR tallies) may differ, and those must be flagged via
// CheckResult::order_fields_approximate. Runs under the TSan CI job:
// the work-stealing deques, the barrier-free POR settle, and the live
// counter flush are the new concurrent surfaces.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/footprint.h"
#include "analysis/independence.h"
#include "specs/array_ot_spec.h"
#include "specs/locking_spec.h"
#include "specs/raft_mongo_spec.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"
#include "tlax/spec.h"

namespace xmodel::tlax {
namespace {

// Level-sync baseline vs. relaxed runs at 1/2/4 workers.
//
// The cross-policy contract differs between clean and violating specs
// (DESIGN.md "Exploration policies"): on a clean spec both policies
// explore exactly the reachable space, so distinct (and generated, POR
// aside) must match level-sync at every worker count. On a violating
// spec level-sync stops at the violating BFS level while relaxed drains
// the ENTIRE reachable space — that full drain is precisely what keeps
// the relaxed counts and verdict worker-count-invariant — so there the
// assertion is: identical verdict to level-sync, and distinct/generated
// identical across all relaxed worker counts (and ≥ the level-sync
// prefix).
void ExpectRelaxedMatchesLevel(const Spec& spec, CheckerOptions options = {},
                               bool generated_exact = true) {
  options.exploration = ExplorationPolicy::kLevelSync;
  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  EXPECT_EQ(base.policy_used, ExplorationPolicy::kLevelSync);
  EXPECT_FALSE(base.order_fields_approximate);
  EXPECT_TRUE(base.worker_steals.empty());
  const bool violating = base.violation.has_value();

  std::optional<CheckResult> relaxed_base;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << spec.name() << " relaxed with "
                                    << workers << " workers");
    options.exploration = ExplorationPolicy::kRelaxed;
    options.num_workers = workers;
    CheckResult result = ModelChecker(options).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.workers_used, workers);
    EXPECT_EQ(result.policy_used, ExplorationPolicy::kRelaxed);
    EXPECT_TRUE(result.policy_notice.empty()) << result.policy_notice;
    EXPECT_TRUE(result.order_fields_approximate);
    EXPECT_EQ(result.worker_steals.size(), static_cast<size_t>(workers));

    if (!violating) {
      EXPECT_EQ(result.distinct_states, base.distinct_states);
      if (generated_exact) {
        EXPECT_EQ(result.generated_states, base.generated_states);
        EXPECT_EQ(result.fingerprint_collision_probability,
                  base.fingerprint_collision_probability);
      }
    } else {
      EXPECT_GE(result.distinct_states, base.distinct_states)
          << "relaxed drains the full space, a superset of the level-sync "
             "prefix";
      if (!relaxed_base.has_value()) {
        relaxed_base = result;
      } else {
        // Worker-count invariance within the relaxed policy.
        EXPECT_EQ(result.distinct_states, relaxed_base->distinct_states);
        if (generated_exact) {
          EXPECT_EQ(result.generated_states,
                    relaxed_base->generated_states);
          EXPECT_EQ(result.fingerprint_collision_probability,
                    relaxed_base->fingerprint_collision_probability);
        }
        ASSERT_TRUE(result.violation.has_value());
        EXPECT_EQ(result.violation->kind, relaxed_base->violation->kind);
      }
    }
    EXPECT_GE(result.idle_fraction, 0.0);
    EXPECT_LE(result.idle_fraction, 1.0);
    // No barriers — the barrier profile must stay empty, the relaxed one
    // populated (profiling defaults on).
    EXPECT_TRUE(result.worker_barrier_wait_ms.empty());
    EXPECT_EQ(result.worker_busy_ms.size(), static_cast<size_t>(workers));
    EXPECT_EQ(result.worker_steal_ms.size(), static_cast<size_t>(workers));
    EXPECT_EQ(result.worker_starve_ms.size(), static_cast<size_t>(workers));

    ASSERT_EQ(result.violation.has_value(), base.violation.has_value());
    if (base.violation.has_value()) {
      EXPECT_EQ(result.violation->kind, base.violation->kind);
      // The relaxed trace is approximate (need not be minimal), but must
      // be a real behavior ending at a violating state.
      ASSERT_FALSE(result.violation->trace.empty());
      EXPECT_EQ(result.violation->trace.front().action,
                "Initial predicate");
    }
  }
}

TEST(RelaxedPolicyTest, RaftMongoDetailed) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  ExpectRelaxedMatchesLevel(specs::RaftMongoSpec(config));
}

TEST(RelaxedPolicyTest, RaftMongoAbstractWithSymmetry) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kAbstract;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  config.use_symmetry = true;
  ExpectRelaxedMatchesLevel(specs::RaftMongoSpec(config));
}

TEST(RelaxedPolicyTest, RaftMongoDetailedWithSymmetry) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  config.use_symmetry = true;
  const specs::RaftMongoSpec spec(config);
  ExpectRelaxedMatchesLevel(spec);
  CheckerOptions options;
  options.exploration = ExplorationPolicy::kRelaxed;
  options.num_workers = 4;
  const CheckResult result = ModelChecker(options).Check(spec);
  EXPECT_EQ(result.distinct_states, 19'473u);
  EXPECT_EQ(result.generated_states, 91'877u);
}

TEST(RelaxedPolicyTest, LockingWithDeadlockCheck) {
  specs::LockingConfig config;
  config.num_contexts = 2;
  CheckerOptions options;
  options.check_deadlock = true;
  ExpectRelaxedMatchesLevel(specs::LockingSpec(config), options);
}

TEST(RelaxedPolicyTest, ArrayOt) {
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  ExpectRelaxedMatchesLevel(specs::ArrayOtSpec(config));
}

TEST(RelaxedPolicyTest, ArrayOtWithInjectedTranscriptionError) {
  // The §5.1.1 deliberate transcription error: relaxed mode must find the
  // same violation kind as level-sync at every worker count, even though
  // it drains the whole space instead of stopping at the first level.
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  config.inject_transcription_error = true;
  specs::ArrayOtSpec spec(config);
  CheckResult base = ModelChecker().Check(spec);
  ASSERT_TRUE(base.violation.has_value());
  ExpectRelaxedMatchesLevel(spec);
}

TEST(RelaxedPolicyTest, CounterViolation) {
  // Mid-space invariant violation with many candidate states: exercises
  // the relaxed (fingerprint, kind) winner selection.
  ExpectRelaxedMatchesLevel(
      specs::CounterSpec(/*limit=*/30, /*violate_at=*/17));
}

TEST(RelaxedPolicyTest, DieHardFindsTheViolation) {
  ExpectRelaxedMatchesLevel(specs::DieHardSpec());
}

TEST(RelaxedPolicyTest, PorDistinctStatesStayExact) {
  // Barrier-free POR (immediate sleep-mask settle): the explored state
  // set must still be exact and worker-count-invariant; slept/generated
  // tallies are approximate, so only distinct and the verdict are
  // compared.
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kAbstract;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  specs::RaftMongoSpec spec(config);
  analysis::SpecFootprints footprints = analysis::InferFootprints(spec);
  CheckerOptions options;
  options.independence = std::make_shared<ActionIndependence>(
      analysis::ComputeIndependence(spec, footprints));
  ExpectRelaxedMatchesLevel(spec, options, /*generated_exact=*/false);
}

TEST(RelaxedPolicyTest, PorViolationVerdictStaysExact) {
  specs::CounterSpec spec(/*limit=*/30, /*violate_at=*/17);
  analysis::SpecFootprints footprints = analysis::InferFootprints(spec);
  CheckerOptions options;
  options.independence = std::make_shared<ActionIndependence>(
      analysis::ComputeIndependence(spec, footprints));
  ExpectRelaxedMatchesLevel(spec, options, /*generated_exact=*/false);
}

TEST(RelaxedPolicyTest, RecordGraphClampsToLevelWithNotice) {
  CheckerOptions options;
  options.exploration = ExplorationPolicy::kRelaxed;
  options.record_graph = true;
  options.num_workers = 2;
  CheckResult result = ModelChecker(options).Check(specs::CounterSpec(4));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.policy_used, ExplorationPolicy::kLevelSync);
  EXPECT_FALSE(result.policy_notice.empty());
  EXPECT_FALSE(result.order_fields_approximate);
  ASSERT_NE(result.graph, nullptr);
  EXPECT_EQ(result.graph->num_states(), result.distinct_states);
}

TEST(RelaxedPolicyTest, ResourceExhaustionStillAborts) {
  specs::CounterSpec spec(/*limit=*/100);
  for (int workers : {1, 4}) {
    CheckerOptions options;
    options.exploration = ExplorationPolicy::kRelaxed;
    options.num_workers = workers;
    options.max_distinct_states = 50;
    CheckResult result = ModelChecker(options).Check(spec);
    EXPECT_EQ(result.status.code(), common::StatusCode::kResourceExhausted)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace xmodel::tlax
