// Tests for the action-independence analysis that xmodel_lint reports:
// golden commutativity matrices on the toy specs, and the value-sensitive
// refinement layered on the abstract-domain pass.

#include <string>

#include <gtest/gtest.h>

#include "analysis/domain.h"
#include "analysis/footprint.h"
#include "analysis/independence.h"
#include "specs/raft_mongo_spec.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"

namespace xmodel::analysis {
namespace {

TEST(IndependenceTest, CounterMatrixGolden) {
  specs::CounterSpec spec(3);
  SpecFootprints footprints = InferFootprints(spec);
  ActionIndependence matrix = ComputeIndependence(spec, footprints);
  // The two increments touch disjoint variables and there is no state
  // constraint, so they commute.
  EXPECT_EQ(IndependenceToText(spec, matrix),
            "IncrementX  -.\n"
            "IncrementY  .-\n"
            "1 commuting pair(s) of 1\n");
}

TEST(IndependenceTest, DieHardMatrixGolden) {
  specs::DieHardSpec spec;
  SpecFootprints footprints = InferFootprints(spec);
  ActionIndependence matrix = ComputeIndependence(spec, footprints);
  // Fill/Empty of one jug commutes with Fill/Empty of the other (2x2
  // pairs); the two pour actions read and write both jugs, so they
  // conflict with everything.
  EXPECT_EQ(matrix.NumCommutingPairs(), 4u);
  EXPECT_EQ(IndependenceToText(spec, matrix),
            "FillSmall   -.C.CC\n"
            "FillBig     .-.CCC\n"
            "EmptySmall  C.-.CC\n"
            "EmptyBig    .C.-CC\n"
            "SmallToBig  CCCC-C\n"
            "BigToSmall  CCCCC-\n"
            "4 commuting pair(s) of 15\n");
}

TEST(IndependenceTest, ConstraintReadsDisqualifyWriters) {
  // RaftMongo's constraint bounds term and oplog length; actions writing
  // those variables must not commute with anything even when their own
  // footprints are disjoint — one interleaving could pass through an
  // out-of-constraint state the checker never expands.
  specs::RaftMongoConfig config;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  specs::RaftMongoSpec spec(config);
  SpecFootprints footprints = InferFootprints(spec);
  ASSERT_NE(footprints.constraint_reads, 0u);

  ActionIndependence matrix = ComputeIndependence(spec, footprints);
  const auto& actions = spec.actions();
  for (size_t a = 0; a < actions.size(); ++a) {
    if ((footprints.actions[a].writes() & footprints.constraint_reads) == 0) {
      continue;
    }
    for (size_t b = 0; b < actions.size(); ++b) {
      if (a == b) continue;
      EXPECT_FALSE(matrix.Commutes(a, b))
          << actions[a].name << " writes a constraint-read variable but "
          << "commutes with " << actions[b].name;
    }
  }
}

specs::RaftMongoSpec MakeRaftMongo(specs::RaftMongoVariant variant,
                                   bool use_symmetry = false) {
  specs::RaftMongoConfig config;
  config.variant = variant;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  config.use_symmetry = use_symmetry;
  return specs::RaftMongoSpec(config);
}

TEST(RefinementTest, RefinedMatrixIsSupersetOfBase) {
  specs::RaftMongoSpec spec = MakeRaftMongo(specs::RaftMongoVariant::kDetailed);
  SpecFootprints footprints = InferFootprints(spec);
  SpecDomains domains = InferDomains(spec);
  ASSERT_TRUE(domains.exhaustive);

  ActionIndependence base = ComputeIndependence(spec, footprints);
  RefinedIndependence refined = RefineIndependence(spec, footprints, domains);
  EXPECT_EQ(refined.base_commuting, base.NumCommutingPairs());
  for (size_t a = 0; a < spec.actions().size(); ++a) {
    for (size_t b = a + 1; b < spec.actions().size(); ++b) {
      if (base.Commutes(a, b)) {
        EXPECT_TRUE(refined.matrix.Commutes(a, b))
            << "refinement dropped " << spec.actions()[a].name << " <-> "
            << spec.actions()[b].name;
      }
    }
  }
  EXPECT_EQ(refined.matrix.NumCommutingPairs(),
            refined.base_commuting + refined.added.size());
}

TEST(RefinementTest, ConstraintClosureUnlocksRaftMongoPairs) {
  // The footprint-only matrix disqualifies every writer of a
  // constraint-read variable (term, votedTerm, oplog). The domain pass
  // proves AppendOplog, RollbackOplog, and term gossip closed over the
  // constrained region, unlocking their disjoint-footprint pairs:
  // Detailed 2 -> 8 commuting pairs, Abstract 1 -> 5.
  {
    specs::RaftMongoSpec spec =
        MakeRaftMongo(specs::RaftMongoVariant::kDetailed);
    SpecFootprints footprints = InferFootprints(spec);
    SpecDomains domains = InferDomains(spec);
    ASSERT_TRUE(domains.exhaustive);
    RefinedIndependence refined =
        RefineIndependence(spec, footprints, domains);
    EXPECT_EQ(refined.base_commuting, 2u);
    EXPECT_EQ(refined.matrix.NumCommutingPairs(), 8u);
    EXPECT_EQ(refined.added.size(), 6u);
  }
  {
    specs::RaftMongoSpec spec =
        MakeRaftMongo(specs::RaftMongoVariant::kAbstract);
    SpecFootprints footprints = InferFootprints(spec);
    SpecDomains domains = InferDomains(spec);
    ASSERT_TRUE(domains.exhaustive);
    RefinedIndependence refined =
        RefineIndependence(spec, footprints, domains);
    EXPECT_EQ(refined.base_commuting, 1u);
    EXPECT_EQ(refined.matrix.NumCommutingPairs(), 5u);
    EXPECT_EQ(refined.added.size(), 4u);
  }
}

TEST(RefinementTest, TruncatedProbeProvesNothing) {
  // Constraint closure is only a proof when the probe exhausted the
  // reachable region; a truncated probe must leave the base matrix
  // untouched.
  specs::RaftMongoSpec spec = MakeRaftMongo(specs::RaftMongoVariant::kDetailed);
  SpecFootprints footprints = InferFootprints(spec);
  DomainOptions options;
  options.max_samples = 20;
  SpecDomains domains = InferDomains(spec, options);
  ASSERT_FALSE(domains.exhaustive);
  RefinedIndependence refined = RefineIndependence(spec, footprints, domains);
  EXPECT_TRUE(refined.added.empty());
  EXPECT_EQ(refined.matrix.NumCommutingPairs(), refined.base_commuting);
}

TEST(RefinementTest, ComposesWithSymmetryCanonicalization) {
  // Regression for the probe/checker contract: footprint, domain, and
  // independence inference all sample CANONICAL states, so with symmetry
  // reduction on the probe must walk the checker's quotient space.
  specs::RaftMongoSpec spec =
      MakeRaftMongo(specs::RaftMongoVariant::kAbstract, /*use_symmetry=*/true);
  SpecDomains domains = InferDomains(spec);
  ASSERT_TRUE(domains.exhaustive);

  tlax::CheckResult plain = tlax::ModelChecker().Check(spec);
  ASSERT_TRUE(plain.status.ok());
  // The domain probe walked the same symmetry-reduced quotient the
  // checker explores.
  EXPECT_EQ(domains.joined_states, plain.distinct_states);
  EXPECT_GE(domains.StateBound(), static_cast<double>(plain.distinct_states));
}

}  // namespace
}  // namespace xmodel::analysis
