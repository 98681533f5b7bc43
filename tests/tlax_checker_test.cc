#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"
#include "tlax/liveness.h"

namespace xmodel::tlax {
namespace {

using specs::CounterSpec;
using specs::DieHardSpec;

TEST(CheckerTest, CounterStateCount) {
  // Two counters in 0..N: (N+1)^2 distinct states.
  CounterSpec spec(/*limit=*/4);
  ModelChecker checker;
  CheckResult result = checker.Check(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.distinct_states, 25u);
  EXPECT_EQ(result.diameter, 8);  // (4,4) is 8 increments away.
}

TEST(CheckerTest, FindsShortestCounterexample) {
  CounterSpec spec(/*limit=*/10, /*violate_at=*/3);
  ModelChecker checker;
  CheckResult result = checker.Check(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, "Sum");
  // BFS guarantees the minimal trace: init + 3 increments.
  EXPECT_EQ(result.violation->trace.size(), 4u);
  EXPECT_EQ(result.violation->trace.front().action, "Initial predicate");
  const State& last = result.violation->trace.back().state;
  EXPECT_EQ(last.var(0).int_value() + last.var(1).int_value(), 3);
}

TEST(CheckerTest, DieHardSolutionHasSevenStates) {
  // The classic result: the shortest way to measure 4 gallons takes 6 steps.
  DieHardSpec spec;
  ModelChecker checker;
  CheckResult result = checker.Check(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, "BigNot4");
  EXPECT_EQ(result.violation->trace.size(), 7u);
  EXPECT_EQ(result.violation->trace.back().state.var(1).int_value(), 4);
}

// TLC's optimistic estimate n * (g - n) / 2^64, in the result and on the
// published gauge.
TEST(CheckerTest, CollisionProbabilityIsTlcEstimate) {
  const obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(
      "checker.fingerprint.collision_probability");
  // 25 states; 40 increments within the limit plus the initial state.
  CheckResult result = ModelChecker().Check(CounterSpec(/*limit=*/4));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.distinct_states, 25u);
  ASSERT_EQ(result.generated_states, 41u);
  EXPECT_EQ(result.fingerprint_collision_probability, 25.0 * 16.0 / 0x1p64);
  EXPECT_EQ(gauge.value(), result.fingerprint_collision_probability);

  // One state and no successor: g == n, nothing was revisited.
  result = ModelChecker().Check(CounterSpec(/*limit=*/0));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.generated_states, result.distinct_states);
  EXPECT_EQ(result.fingerprint_collision_probability, 0.0);
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(CheckerTest, MaxStatesAborts) {
  CounterSpec spec(/*limit=*/100);
  CheckerOptions options;
  options.max_distinct_states = 50;
  ModelChecker checker(options);
  CheckResult result = checker.Check(spec);
  EXPECT_EQ(result.status.code(), common::StatusCode::kResourceExhausted);
}

TEST(CheckerTest, RecordsGraph) {
  CounterSpec spec(/*limit=*/2);
  CheckerOptions options;
  options.record_graph = true;
  ModelChecker checker(options);
  CheckResult result = checker.Check(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_NE(result.graph, nullptr);
  EXPECT_EQ(result.graph->num_states(), 9u);
  // Each state (x,y) has an edge per enabled increment: 2*3*2 = 12 edges.
  EXPECT_EQ(result.graph->num_edges(), 12u);
  EXPECT_EQ(result.graph->initial_states().size(), 1u);

  std::string dot = result.graph->ToDot(spec.variables());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("IncrementX"), std::string::npos);
  EXPECT_NE(dot.find("x = 0"), std::string::npos);
}

TEST(CheckerTest, GeneratedStatesCountsDuplicates) {
  CounterSpec spec(/*limit=*/2);
  ModelChecker checker;
  CheckResult result = checker.Check(spec);
  // 12 transitions + 1 initial state = 13 generated (TLC counts inits).
  EXPECT_EQ(result.generated_states, 13u);
}

TEST(CheckerTest, DeadlockDetection) {
  // Counter with limit 1 deadlocks at (1,1) when deadlock checking is on.
  CounterSpec spec(/*limit=*/1);
  CheckerOptions options;
  options.check_deadlock = true;
  ModelChecker checker(options);
  CheckResult result = checker.Check(spec);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, "Deadlock");
  const State& last = result.violation->trace.back().state;
  EXPECT_EQ(last.var(0).int_value(), 1);
  EXPECT_EQ(last.var(1).int_value(), 1);
}

TEST(LivenessTest, LeadsToHoldsOnCounter) {
  // x=1 leads to x=2 in the counter spec (every path can still increment x).
  CounterSpec spec(/*limit=*/3);
  CheckerOptions options;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(spec);
  ASSERT_TRUE(result.status.ok());
  LeadsToResult lt = CheckLeadsTo(
      *result.graph,
      [](const State& s) { return s.var(0).int_value() == 1; },
      [](const State& s) { return s.var(0).int_value() == 2; });
  EXPECT_TRUE(lt.holds);
}

TEST(LivenessTest, AlwaysReachableHoldsOnCounter) {
  // After x=1, the state x=2 stays reachable until it happens; since x only
  // grows, "x >= 2 reachable" holds from every state after x=1.
  CounterSpec spec(/*limit=*/3);
  CheckerOptions options;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(spec);
  LeadsToResult lt = CheckAlwaysReachable(
      *result.graph,
      [](const State& s) { return s.var(0).int_value() == 1; },
      [](const State& s) { return s.var(0).int_value() >= 2; });
  EXPECT_TRUE(lt.holds);

  // But "x == 1 is always reachable after x == 1" fails: incrementing x
  // makes x==1 unreachable forever.
  LeadsToResult lt2 = CheckAlwaysReachable(
      *result.graph,
      [](const State& s) { return s.var(0).int_value() == 1; },
      [](const State& s) { return s.var(0).int_value() == 1; });
  EXPECT_FALSE(lt2.holds);
}

TEST(LivenessTest, LeadsToFailsOnQFreeCycle) {
  // A two-state spec that can loop between a and b forever without reaching
  // the goal g: a ~> g must fail via the cycle trap.
  class LoopSpec : public Spec {
   public:
    LoopSpec() : variables_{"v"} {
      auto go = [](int64_t from, int64_t to) {
        return [from, to](const State& s, std::vector<State>* out) {
          if (s.var(0).int_value() == from) {
            out->push_back(State({Value::Int(to)}));
          }
        };
      };
      actions_.push_back(Action{"AtoB", go(0, 1)});
      actions_.push_back(Action{"BtoA", go(1, 0)});
      actions_.push_back(Action{"BtoG", go(1, 2)});
    }
    std::string name() const override { return "Loop"; }
    const std::vector<std::string>& variables() const override {
      return variables_;
    }
    std::vector<State> InitialStates() const override {
      return {State({Value::Int(0)})};
    }
    const std::vector<Action>& actions() const override { return actions_; }
    const std::vector<Invariant>& invariants() const override {
      return invariants_;
    }

   private:
    std::vector<std::string> variables_;
    std::vector<Action> actions_;
    std::vector<Invariant> invariants_;
  };

  LoopSpec spec;
  CheckerOptions options;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(spec);
  ASSERT_TRUE(result.status.ok());

  auto at = [](int64_t v) {
    return [v](const State& s) { return s.var(0).int_value() == v; };
  };
  // The a<->b loop is a Q-free cycle: leads-to fails...
  EXPECT_FALSE(CheckLeadsTo(*result.graph, at(0), at(2)).holds);
  // ...but the goal remains reachable from everywhere in the loop.
  EXPECT_TRUE(CheckAlwaysReachable(*result.graph, at(0), at(2)).holds);
  // Trivially, P ~> P holds.
  EXPECT_TRUE(CheckLeadsTo(*result.graph, at(0), at(0)).holds);
}

TEST(LivenessTest, LeadsToFailsWhenBlocked) {
  // x=3 (the limit) can never lead to x=4: no Q-state exists at all.
  CounterSpec spec(/*limit=*/3);
  CheckerOptions options;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(spec);
  LeadsToResult lt = CheckLeadsTo(
      *result.graph,
      [](const State& s) { return s.var(0).int_value() == 3; },
      [](const State& s) { return s.var(0).int_value() == 4; });
  EXPECT_FALSE(lt.holds);
  EXPECT_TRUE(lt.counterexample_state.has_value());
}

TEST(LivenessTest, SccOnCounterGraphIsAllSingletons) {
  CounterSpec spec(/*limit=*/2);
  CheckerOptions options;
  options.record_graph = true;
  CheckResult result = ModelChecker(options).Check(spec);
  uint32_t num_components = 0;
  std::vector<uint32_t> comp =
      StronglyConnectedComponents(*result.graph, &num_components);
  // The counter graph is a DAG: every SCC is a singleton.
  EXPECT_EQ(num_components, result.graph->num_states());
  EXPECT_EQ(comp.size(), result.graph->num_states());
}

}  // namespace
}  // namespace xmodel::tlax
