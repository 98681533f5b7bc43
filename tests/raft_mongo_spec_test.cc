#include <gtest/gtest.h>

#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"
#include "tlax/liveness.h"
#include "tlax/trace_check.h"

namespace xmodel::specs {
namespace {

using tlax::CheckerOptions;
using tlax::CheckResult;
using tlax::ModelChecker;
using tlax::State;
using tlax::TraceState;
using tlax::Value;

RaftMongoConfig SmallConfig(RaftMongoVariant variant) {
  RaftMongoConfig config;
  config.variant = variant;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  return config;
}

TEST(RaftMongoSpecTest, NamesAndVariables) {
  RaftMongoSpec abstract(SmallConfig(RaftMongoVariant::kAbstract));
  RaftMongoSpec detailed(SmallConfig(RaftMongoVariant::kDetailed));
  EXPECT_EQ(abstract.name(), "RaftMongoAbstract");
  EXPECT_EQ(detailed.name(), "RaftMongoDetailed");
  EXPECT_EQ(abstract.variables(),
            (std::vector<std::string>{"role", "term", "commitPoint",
                                      "oplog", "votedTerm"}));
  // The abstract spec has fewer actions (no per-node term gossip).
  EXPECT_LT(abstract.actions().size(), detailed.actions().size());
}

TEST(RaftMongoSpecTest, InitialStateAllFollowers) {
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  auto inits = spec.InitialStates();
  ASSERT_EQ(inits.size(), 1u);
  const State& init = inits[0];
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(init.var(RaftMongoSpec::kRole).at(n).string_value(),
              "Follower");
    EXPECT_EQ(init.var(RaftMongoSpec::kTerm).at(n).int_value(), 0);
    EXPECT_TRUE(init.var(RaftMongoSpec::kCommitPoint).at(n).is_nil());
    EXPECT_EQ(init.var(RaftMongoSpec::kOplog).at(n).size(), 0u);
  }
}

TEST(RaftMongoSpecTest, BothVariantsSatisfySafety) {
  for (auto variant :
       {RaftMongoVariant::kAbstract, RaftMongoVariant::kDetailed}) {
    RaftMongoSpec spec(SmallConfig(variant));
    CheckResult result = ModelChecker().Check(spec);
    ASSERT_TRUE(result.status.ok()) << spec.name();
    EXPECT_FALSE(result.violation.has_value())
        << spec.name() << ": " << (result.violation
                                       ? result.violation->kind
                                       : "");
    EXPECT_GT(result.distinct_states, 100u);
  }
}

TEST(RaftMongoSpecTest, DetailedSpecHasLargerStateSpace) {
  // The paper's E1 claim in miniature: rewriting the spec for MBTC blew up
  // the state space (42,034 -> 371,368 at full config).
  RaftMongoSpec abstract(SmallConfig(RaftMongoVariant::kAbstract));
  RaftMongoSpec detailed(SmallConfig(RaftMongoVariant::kDetailed));
  CheckResult ra = ModelChecker().Check(abstract);
  CheckResult rd = ModelChecker().Check(detailed);
  EXPECT_GT(rd.distinct_states, ra.distinct_states);
}

TEST(RaftMongoSpecTest, CommitPointEventuallyPropagated) {
  // The spec's temporal property: once a write commits anywhere, a state
  // where every node knows the newest commit point remains reachable.
  RaftMongoConfig config = SmallConfig(RaftMongoVariant::kDetailed);
  config.max_term = 1;  // Keep the graph small for the test.
  RaftMongoSpec spec(config);
  CheckerOptions options;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(spec);
  ASSERT_TRUE(result.status.ok());
  auto lt = tlax::CheckAlwaysReachable(*result.graph, SomeNodeCommitted,
                                       AllNodesShareNewestCommitPoint);
  EXPECT_TRUE(lt.holds) << lt.message;
}

TEST(RaftMongoSpecTest, MakeStateRoundTrip) {
  State s = RaftMongoSpec::MakeState({"Leader", "Follower", "Follower"},
                                     {2, 2, 1},
                                     {{2, 1}, {0, 0}, {0, 0}},
                                     {{1, 2}, {1}, {}});
  EXPECT_EQ(s.var(RaftMongoSpec::kRole).at(0).string_value(), "Leader");
  EXPECT_EQ(s.var(RaftMongoSpec::kTerm).at(2).int_value(), 1);
  const Value& cp0 = s.var(RaftMongoSpec::kCommitPoint).at(0);
  EXPECT_EQ(cp0.FieldOrDie("term").int_value(), 2);
  EXPECT_EQ(cp0.FieldOrDie("index").int_value(), 1);
  EXPECT_TRUE(s.var(RaftMongoSpec::kCommitPoint).at(1).is_nil());
  EXPECT_EQ(s.var(RaftMongoSpec::kOplog).at(0).size(), 2u);
}

// AppendOplog walks prefix links instead of calling SubSeq once per batch
// size; its successors, values and order must be exactly those of the
// SubSeq formulation: for each (puller n, source m), every strictly longer
// prefix of m's log, shortest first.
TEST(RaftMongoSpecTest, AppendOplogSuccessorsMatchSubSeq) {
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  const tlax::Action* append = nullptr;
  for (const tlax::Action& action : spec.actions()) {
    if (action.name == "AppendOplog") append = &action;
  }
  ASSERT_NE(append, nullptr);
  // Node 1 lags node 0 by 5 entries, node 2 by 3; node 1's log is a
  // prefix of node 2's too.
  const State s = RaftMongoSpec::MakeState(
      {"Leader", "Follower", "Follower"}, {4, 4, 3},
      {{0, 0}, {0, 0}, {0, 0}},
      {{1, 2, 2, 3, 3, 3, 4}, {1, 2}, {1, 2, 2, 3}});

  std::vector<State> expected;
  for (int n = 0; n < 3; ++n) {
    const Value& mine = s.var(RaftMongoSpec::kOplog).at(n);
    for (int m = 0; m < 3; ++m) {
      const Value& theirs = s.var(RaftMongoSpec::kOplog).at(m);
      if (m == n || theirs.size() <= mine.size() ||
          theirs.SubSeq(1, mine.size()) != mine) {
        continue;
      }
      for (size_t len = mine.size() + 1; len <= theirs.size(); ++len) {
        expected.push_back(s.With(
            RaftMongoSpec::kOplog,
            s.var(RaftMongoSpec::kOplog).WithIndex1(n + 1,
                                                    theirs.SubSeq(1, len))));
      }
    }
  }
  ASSERT_EQ(expected.size(), 10u);  // 5 + 2 for node 1, 3 for node 2.

  // Twice: first with links filled lazily, then with every link set.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<State> out;
    append->next(s, &out);
    ASSERT_EQ(out.size(), expected.size()) << "pass " << pass;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(out[i] == expected[i]) << "pass " << pass << " #" << i;
      EXPECT_EQ(out[i].fingerprint(), expected[i].fingerprint());
    }
  }
}

TEST(RaftMongoSpecTest, InvariantRejectsMinorityCommit) {
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  // Node 0's commit point names an entry only it holds.
  State bad = RaftMongoSpec::MakeState({"Leader", "Follower", "Follower"},
                                       {1, 1, 1},
                                       {{1, 1}, {0, 0}, {0, 0}},
                                       {{1}, {}, {}});
  EXPECT_FALSE(spec.invariants()[0].predicate(bad));
  // With a majority holding the entry it is fine.
  State good = RaftMongoSpec::MakeState({"Leader", "Follower", "Follower"},
                                        {1, 1, 1},
                                        {{1, 1}, {0, 0}, {0, 0}},
                                        {{1}, {1}, {}});
  EXPECT_TRUE(spec.invariants()[0].predicate(good));
}

TEST(RaftMongoSpecTest, InvariantRejectsTwoLeaders) {
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  State bad = RaftMongoSpec::MakeState({"Leader", "Leader", "Follower"},
                                       {1, 2, 2},
                                       {{0, 0}, {0, 0}, {0, 0}},
                                       {{}, {}, {}});
  EXPECT_FALSE(spec.invariants()[1].predicate(bad));
}

TEST(RaftMongoSpecTest, ConstraintPrunesBigStates) {
  RaftMongoConfig config = SmallConfig(RaftMongoVariant::kDetailed);
  RaftMongoSpec spec(config);
  State over_term = RaftMongoSpec::MakeState({"Follower", "Follower",
                                              "Follower"},
                                             {9, 0, 0},
                                             {{0, 0}, {0, 0}, {0, 0}},
                                             {{}, {}, {}});
  EXPECT_FALSE(spec.WithinConstraint(over_term));
  State long_log = RaftMongoSpec::MakeState({"Follower", "Follower",
                                             "Follower"},
                                            {1, 1, 1},
                                            {{0, 0}, {0, 0}, {0, 0}},
                                            {{1, 1, 1}, {}, {}});
  EXPECT_FALSE(spec.WithinConstraint(long_log));
}

// The observable projection of a state: the four logged variables defined,
// votedTerm existentially quantified.
TraceState FullTrace(const State& s) {
  return RaftMongoSpec::ToObservableTraceState(s);
}

TEST(RaftMongoSpecTest, LegalBehaviorTraceChecks) {
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  std::vector<TraceState> trace = {
      FullTrace(RaftMongoSpec::MakeState(
          {"Follower", "Follower", "Follower"}, {0, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      // Node 0 is elected: only the candidate's visible term changes (the
      // voters' durable votedTerm updates are invisible).
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      // Node 1 learns the term through gossip.
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 1, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      // Client write on the leader.
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 1, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{1}, {}, {}})),
      // Node 1 replicates.
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 1, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{1}, {1}, {}})),
      // The leader advances the commit point.
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 1, 0},
          {{1, 1}, {0, 0}, {0, 0}}, {{1}, {1}, {}})),
  };
  auto result = tlax::TraceChecker().Check(spec, trace);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.step_actions[1],
            std::vector<std::string>{"BecomePrimaryByMagic"});
  EXPECT_EQ(result.step_actions[2],
            std::vector<std::string>{"UpdateTermThroughHeartbeat"});
  EXPECT_EQ(result.step_actions[5],
            std::vector<std::string>{"AdvanceCommitPoint"});
}

TEST(RaftMongoSpecTest, IllegalTransitionFailsTraceCheck) {
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  std::vector<TraceState> trace = {
      FullTrace(RaftMongoSpec::MakeState(
          {"Follower", "Follower", "Follower"}, {0, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      // The leader's log jumps by TWO entries in one step: no single
      // ClientWrite explains it.
      FullTrace(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{1, 1}, {}, {}})),
  };
  auto result = tlax::TraceChecker().Check(spec, trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.failed_step, 2u);
}

TEST(RaftMongoSpecTest, PartialTraceWithUnloggedOplogPasses) {
  // Pressler's refinement: the oplog variable is never logged; the checker
  // must find oplog assignments that explain the role/term/commit changes.
  RaftMongoSpec spec(SmallConfig(RaftMongoVariant::kDetailed));
  auto partial = [](const State& s) {
    TraceState t = FullTrace(s);
    t.vars[RaftMongoSpec::kOplog] = std::nullopt;
    return t;
  };
  std::vector<TraceState> trace = {
      partial(RaftMongoSpec::MakeState(
          {"Follower", "Follower", "Follower"}, {0, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      partial(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 0, 0},
          {{0, 0}, {0, 0}, {0, 0}}, {{}, {}, {}})),
      partial(RaftMongoSpec::MakeState(
          {"Leader", "Follower", "Follower"}, {1, 0, 0},
          {{1, 1}, {0, 0}, {0, 0}}, {{}, {}, {}})),
  };
  // Step 2 needs: write, replicate (invisible), then AdvanceCommitPoint —
  // more than one hidden step per trace step, so allow stuttering... no:
  // hidden steps BETWEEN trace events are not stuttering; each trace step
  // must be ONE action. The commit point cannot move without visible
  // intermediate events here, so this still fails...
  // Actually AdvanceCommitPoint requires the majority to hold the entry,
  // which requires prior ClientWrite+AppendOplog steps; with the oplog
  // hidden those produce IDENTICAL visible states, which strict mode
  // rejects. With stuttering allowed they are absorbed.
  tlax::TraceCheckOptions options;
  options.allow_stuttering = true;
  // Insert the invisible steps as duplicated partial states.
  std::vector<TraceState> padded = {trace[0], trace[1], trace[1],
                                    trace[1], trace[2]};
  auto result = tlax::TraceChecker(options).Check(spec, padded);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
}

}  // namespace
}  // namespace xmodel::specs
