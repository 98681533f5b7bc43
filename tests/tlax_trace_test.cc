#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "specs/toy_specs.h"
#include "tlax/tla_text.h"
#include "tlax/trace_check.h"

namespace xmodel::tlax {
namespace {

using specs::CounterSpec;

TraceState Full(int64_t x, int64_t y) {
  TraceState s;
  s.vars = {Value::Int(x), Value::Int(y)};
  return s;
}

TraceState OnlyX(int64_t x) {
  TraceState s;
  s.vars = {Value::Int(x), std::nullopt};
  return s;
}

TEST(TlaTextTest, ParseScalars) {
  EXPECT_EQ(*ParseTlaValue("42"), Value::Int(42));
  EXPECT_EQ(*ParseTlaValue("-7"), Value::Int(-7));
  EXPECT_EQ(*ParseTlaValue("TRUE"), Value::Bool(true));
  EXPECT_EQ(*ParseTlaValue("FALSE"), Value::Bool(false));
  EXPECT_EQ(*ParseTlaValue("NULL"), Value::Nil());
  EXPECT_EQ(*ParseTlaValue("\"Leader\""), Value::Str("Leader"));
}

TEST(TlaTextTest, ParseComposites) {
  EXPECT_EQ(*ParseTlaValue("<<1, 2>>"),
            Value::Seq({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(*ParseTlaValue("<<>>"), Value::EmptySeq());
  EXPECT_EQ(*ParseTlaValue("{2, 1}"),
            Value::SetOf({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(*ParseTlaValue("[ndx |-> 3, val |-> \"a\"]"),
            Value::Record({{"ndx", Value::Int(3)}, {"val", Value::Str("a")}}));
  EXPECT_EQ(*ParseTlaValue("<<<<1>>, <<>>>>"),
            Value::Seq({Value::Seq({Value::Int(1)}), Value::EmptySeq()}));
}

TEST(TlaTextTest, RoundTripsArbitraryValues) {
  std::vector<Value> values = {
      Value::Nil(),
      Value::Int(-12),
      Value::Str("x y"),
      Value::Seq({Value::Record({{"a", Value::SetOf({Value::Int(1)})}}),
                  Value::Bool(false)}),
  };
  for (const Value& v : values) {
    auto parsed = ParseTlaValue(v.ToTla());
    ASSERT_TRUE(parsed.ok()) << v.ToTla();
    EXPECT_EQ(*parsed, v) << v.ToTla();
  }
}

TEST(TlaTextTest, ParseErrors) {
  EXPECT_FALSE(ParseTlaValue("<<1,").ok());
  EXPECT_FALSE(ParseTlaValue("junk").ok());
  EXPECT_FALSE(ParseTlaValue("[x 3]").ok());
  EXPECT_FALSE(ParseTlaValue("1 2").ok());
  EXPECT_FALSE(ParseTlaValue("\"open").ok());
}

TEST(TlaTextTest, TraceModuleRoundTrip) {
  std::vector<TraceState> trace = {Full(0, 0), OnlyX(1), Full(1, 1)};
  std::string text = TraceModuleText("Trace", {"x", "y"}, trace);
  EXPECT_NE(text.find("MODULE Trace"), std::string::npos);
  EXPECT_NE(text.find("Trace == <<"), std::string::npos);

  auto parsed = ParseTraceModule(text, 2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(*(*parsed)[0].vars[0], Value::Int(0));
  EXPECT_FALSE((*parsed)[1].vars[1].has_value());
  EXPECT_EQ(*(*parsed)[2].vars[1], Value::Int(1));
}

TEST(TlaTextTest, EmptyTraceModule) {
  std::string text = TraceModuleText("Trace", {"x", "y"}, {});
  auto parsed = ParseTraceModule(text, 2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceCheckTest, AcceptsLegalTrace) {
  CounterSpec spec(/*limit=*/5);
  std::vector<TraceState> trace = {Full(0, 0), Full(1, 0), Full(1, 1),
                                   Full(2, 1)};
  TraceChecker checker;
  TraceCheckResult result = checker.Check(spec, trace);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  ASSERT_EQ(result.step_actions.size(), 4u);
  EXPECT_EQ(result.step_actions[0], std::vector<std::string>{"Init"});
  EXPECT_EQ(result.step_actions[1], std::vector<std::string>{"IncrementX"});
  EXPECT_EQ(result.step_actions[2], std::vector<std::string>{"IncrementY"});
}

TEST(TraceCheckTest, RejectsIllegalStep) {
  CounterSpec spec(/*limit=*/5);
  // x jumps by 2: no single action explains it.
  std::vector<TraceState> trace = {Full(0, 0), Full(2, 0)};
  TraceChecker checker;
  TraceCheckResult result = checker.Check(spec, trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.failed_step, 1u);
}

TEST(TraceCheckTest, RejectsBadInitialState) {
  CounterSpec spec(/*limit=*/5);
  std::vector<TraceState> trace = {Full(3, 3)};
  TraceCheckResult result = TraceChecker().Check(spec, trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.failed_step, 0u);
}

TEST(TraceCheckTest, PartialStatesAreExistential) {
  CounterSpec spec(/*limit=*/5);
  // y is never logged; the checker must find an assignment. x goes 0,1,1 —
  // the middle step must be explained by IncrementY (y changed, unobserved).
  std::vector<TraceState> trace = {OnlyX(0), OnlyX(1), OnlyX(1), OnlyX(2)};
  TraceCheckResult result = TraceChecker().Check(spec, trace);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.step_actions[2], std::vector<std::string>{"IncrementY"});
}

TEST(TraceCheckTest, StutteringOption) {
  CounterSpec spec(/*limit=*/5);
  std::vector<TraceState> trace = {Full(0, 0), Full(0, 0), Full(1, 0)};
  // Without stuttering the duplicate state cannot be explained.
  TraceCheckResult strict = TraceChecker().Check(spec, trace);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.failed_step, 1u);

  TraceCheckOptions options;
  options.allow_stuttering = true;
  TraceCheckResult lax = TraceChecker(options).Check(spec, trace);
  EXPECT_TRUE(lax.ok());
}

TEST(TraceCheckTest, EmptyTraceIsLegal) {
  CounterSpec spec(/*limit=*/2);
  EXPECT_TRUE(TraceChecker().Check(spec, {}).ok());
}

TEST(TraceCheckTest, PresslerModeAgreesWithNative) {
  CounterSpec spec(/*limit=*/4);
  std::vector<TraceState> good = {Full(0, 0), Full(0, 1), Full(1, 1)};
  std::vector<TraceState> bad = {Full(0, 0), Full(0, 1), Full(2, 1)};

  TraceCheckOptions pressler;
  pressler.mode = TraceCheckMode::kPresslerReparse;
  EXPECT_TRUE(TraceChecker(pressler).Check(spec, good).ok());
  TraceCheckResult failed = TraceChecker(pressler).Check(spec, bad);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.failed_step, 2u);

  // Both modes run one step loop: every result field agrees.
  for (const std::vector<TraceState>* trace : {&good, &bad}) {
    TraceCheckResult native = TraceChecker().Check(spec, *trace);
    TraceCheckResult reparsed = TraceChecker(pressler).Check(spec, *trace);
    EXPECT_EQ(reparsed.status.code(), native.status.code());
    EXPECT_EQ(reparsed.status.message(), native.status.message());
    EXPECT_EQ(reparsed.failed_step, native.failed_step);
    EXPECT_EQ(reparsed.step_actions, native.step_actions);
    EXPECT_EQ(reparsed.states_explored, native.states_explored);
  }
}

// The search flushes checker.trace.states.explored live every 1024
// explored states; the live flushes plus the end-of-run remainder must add
// up to exactly states_explored. Its layers go to their own histogram,
// not to the model checker's BFS level sizes.
TEST(TraceCheckTest, LiveExploredCounterReconcilesWithResult) {
  CounterSpec spec(/*limit=*/40);
  // One observed step hiding 60 actions: the search sweeps the (x, y)
  // grid up to x + y = 60, several live flushes' worth of states.
  const std::vector<TraceState> trace = {Full(0, 0), Full(30, 30)};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& explored =
      registry.GetCounter("checker.trace.states.explored");
  obs::Histogram& levels = registry.GetHistogram("checker.frontier.level_size");
  obs::Histogram& layers = registry.GetHistogram("checker.trace.layer_size");
  TraceCheckOptions options;
  options.max_hidden_steps = 60;
  const uint64_t before = explored.value();
  const uint64_t levels_before = levels.count();
  const uint64_t layers_before = layers.count();
  TraceCheckResult result = TraceChecker(options).Check(spec, trace);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.states_explored, 1024u);
  EXPECT_EQ(explored.value() - before, result.states_explored);
  EXPECT_EQ(levels.count(), levels_before);
  EXPECT_EQ(layers.count() - layers_before, 60u)
      << "one observation per search layer, 60 layers deep";
}

// A search cut short by max_search_states_per_step proves nothing: an
// unmatched step after it is ResourceExhausted, not a violation, and the
// trace-violation counter does not move.
TEST(TraceCheckTest, BudgetCutSearchIsNotAViolation) {
  CounterSpec spec(/*limit=*/5);
  // (2, 2) is four hidden actions from (0, 0); a 5-state budget runs out
  // in the second layer, dropping states that lead there.
  const std::vector<TraceState> trace = {Full(0, 0), Full(2, 2)};
  obs::Counter& violations = obs::MetricsRegistry::Global().GetCounter(
      "checker.trace.violations.found");
  TraceCheckOptions options;
  options.max_hidden_steps = 4;
  options.max_search_states_per_step = 5;
  const uint64_t before = violations.value();
  TraceCheckResult result = TraceChecker(options).Check(spec, trace);
  EXPECT_EQ(result.status.code(), common::StatusCode::kResourceExhausted)
      << result.status.ToString();
  EXPECT_EQ(result.failed_step, 1u);
  EXPECT_NE(result.status.message().find("budget of 5 states"),
            std::string::npos)
      << result.status.message();
  EXPECT_EQ(violations.value(), before);

  options.max_search_states_per_step = 1000;
  result = TraceChecker(options).Check(spec, trace);
  EXPECT_TRUE(result.ok()) << result.status.ToString();

  // A cut in the last layer that leaves layer states unexpanded: the budget
  // of 3 runs out while the first of the two second-layer states is
  // expanded, and the other still has successors, so the search is
  // incomplete. Only the init state and the four expanded successors count
  // as explored.
  options.max_hidden_steps = 2;
  options.max_search_states_per_step = 3;
  result = TraceChecker(options).Check(spec, trace);
  EXPECT_EQ(result.status.code(), common::StatusCode::kResourceExhausted)
      << result.status.ToString();
  EXPECT_EQ(result.states_explored, 5u);
  // Uncut, (2, 2) is out of reach in two actions: a violation.
  options.max_search_states_per_step = 1000;
  result = TraceChecker(options).Check(spec, trace);
  EXPECT_EQ(result.status.code(), common::StatusCode::kFailedPrecondition)
      << result.status.ToString();

  // A search that spends its last budget state on its last expansion is
  // complete, so its empty frontier is still a violation: without
  // stuttering, (0, 0) -> (0, 0) has no one-action explanation, and the
  // one layer has exactly two successors.
  options = TraceCheckOptions();
  options.max_search_states_per_step = 2;
  result = TraceChecker(options).Check(spec, {Full(0, 0), Full(0, 0)});
  EXPECT_EQ(result.status.code(), common::StatusCode::kFailedPrecondition)
      << result.status.ToString();
  EXPECT_EQ(result.failed_step, 1u);
}

TEST(TraceCheckTest, CheckModuleNative) {
  CounterSpec spec(/*limit=*/4);
  std::vector<TraceState> trace = {Full(0, 0), Full(1, 0)};
  std::string module = TraceModuleText("Trace", spec.variables(), trace);
  TraceCheckResult result = TraceChecker().CheckModule(spec, module);
  EXPECT_TRUE(result.ok()) << result.status.ToString();
}

TEST(TraceCheckTest, CheckModuleRejectsGarbage) {
  CounterSpec spec(/*limit=*/4);
  TraceCheckResult result = TraceChecker().CheckModule(spec, "not a module");
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), common::StatusCode::kCorruption);
}

}  // namespace
}  // namespace xmodel::tlax
