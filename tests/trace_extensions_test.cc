#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>
#include <vector>

#include "repl/rollback_fuzzer.h"
#include "repl/scenarios.h"
#include "specs/raft_mongo_spec.h"
#include "specs/toy_specs.h"
#include "tlax/spec_coverage.h"
#include "trace/mbtc_pipeline.h"
#include "trace/snapshot_tracer.h"
#include "trace/trace_logger.h"

namespace xmodel::trace {
namespace {

using specs::RaftMongoConfig;
using specs::RaftMongoSpec;
using specs::RaftMongoVariant;

RaftMongoSpec UnboundedSpec(int num_nodes) {
  RaftMongoConfig config;
  config.variant = RaftMongoVariant::kDetailed;
  config.num_nodes = num_nodes;
  config.max_term = 1'000'000;
  config.max_oplog_len = 1'000'000;
  return RaftMongoSpec(config);
}

TEST(SpecCoverageTest, AccumulatesOverTraces) {
  // Counter spec: (limit+1)^2 reachable states.
  specs::CounterSpec spec(/*limit=*/3);
  tlax::SpecCoverage coverage;
  ASSERT_TRUE(coverage.Initialize(spec).ok());
  EXPECT_EQ(coverage.reachable_states(), 16u);
  EXPECT_EQ(coverage.covered_states(), 0u);

  auto full = [](int64_t x, int64_t y) {
    tlax::TraceState t;
    t.vars = {tlax::Value::Int(x), tlax::Value::Int(y)};
    return t;
  };
  // One straight-line trace covers 4 states.
  ASSERT_TRUE(
      coverage
          .AddTrace(spec, {full(0, 0), full(1, 0), full(2, 0), full(3, 0)})
          .ok());
  EXPECT_EQ(coverage.covered_states(), 4u);
  // A second, different trace extends coverage; overlapping states are
  // counted once.
  ASSERT_TRUE(coverage.AddTrace(spec, {full(0, 0), full(0, 1), full(1, 1)})
                  .ok());
  EXPECT_EQ(coverage.covered_states(), 6u);
  EXPECT_EQ(coverage.traces(), 2u);
  EXPECT_NEAR(coverage.Fraction(), 6.0 / 16.0, 1e-9);
  // Re-adding the same trace changes nothing.
  ASSERT_TRUE(coverage.AddTrace(spec, {full(0, 0), full(0, 1), full(1, 1)})
                  .ok());
  EXPECT_EQ(coverage.covered_states(), 6u);
}

TEST(SpecCoverageTest, PartialTracesCoverAllConsistentStates) {
  specs::CounterSpec spec(/*limit=*/2);
  tlax::SpecCoverage coverage;
  ASSERT_TRUE(coverage.Initialize(spec).ok());
  // Only x observed: every y consistent with the trace is covered.
  tlax::TraceState t0, t1;
  t0.vars = {tlax::Value::Int(0), std::nullopt};
  t1.vars = {tlax::Value::Int(1), std::nullopt};
  ASSERT_TRUE(coverage.AddTrace(spec, {t0, t1}).ok());
  // Position 0 matches (0,0); position 1 matches (1,0) plus a stutter/step
  // fan-out across hidden y values along the way.
  EXPECT_GE(coverage.covered_states(), 2u);
}

TEST(SpecCoverageTest, RejectsIllegalTrace) {
  specs::CounterSpec spec(/*limit=*/2);
  tlax::SpecCoverage coverage;
  ASSERT_TRUE(coverage.Initialize(spec).ok());
  tlax::TraceState bad;
  bad.vars = {tlax::Value::Int(7), tlax::Value::Int(7)};
  EXPECT_FALSE(coverage.AddTrace(spec, {bad}).ok());
}

TEST(SpecCoverageTest, ScenarioTracesCoverRaftMongoSpace) {
  // The paper's unbuilt CI metric (§4.2.4): accumulate coverage of the
  // bounded spec space across all scenario traces.
  RaftMongoConfig config;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  RaftMongoSpec bounded(config);
  tlax::SpecCoverage coverage;
  ASSERT_TRUE(coverage.Initialize(bounded).ok());
  EXPECT_GT(coverage.reachable_states(), 40'000u);  // Constrained states only.

  RaftMongoSpec unbounded = UnboundedSpec(3);
  int accumulated = 0;
  for (const repl::Scenario& scenario : repl::BaseScenarios()) {
    if (scenario.uses_arbiters || scenario.exhibits_two_leaders) continue;
    if (scenario.name == "initial_sync_quorum_bug") continue;
    if (scenario.config.num_nodes != 3) continue;
    repl::ReplicaSet rs(scenario.config);
    TraceLogger logger(&rs.clock());
    rs.AttachTraceSink(&logger);
    ASSERT_TRUE(scenario.run(rs).ok()) << scenario.name;
    auto merged = MergeLogs(logger.LogFiles(rs.num_nodes()));
    ASSERT_TRUE(merged.ok());
    EventProcessorOptions po;
    po.num_nodes = 3;
    ProcessedTrace processed = EventProcessor(po).Process(*merged);
    ASSERT_TRUE(processed.ok());
    auto trace = MbtcPipeline::ToTraceStates(processed.states);
    // Coverage accumulation tolerates traces that wander outside the
    // bounded space; it only counts in-space states.
    if (coverage.AddTrace(bounded, trace).ok()) ++accumulated;
  }
  EXPECT_GT(accumulated, 3);
  EXPECT_GT(coverage.covered_states(), 10u);
  // Handwritten tests cover a sliver of the space — the paper's reason to
  // want the metric in CI.
  EXPECT_LT(coverage.Fraction(), 0.05);
}

TEST(TraceLoggerFileTest, WriteAndReadRoundTrip) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "xmodel_trace_logs";
  fs::create_directories(dir);

  repl::ReplicaSetConfig config;
  repl::ReplicaSet rs(config);
  TraceLogger logger(&rs.clock());
  rs.AttachTraceSink(&logger);
  ASSERT_TRUE(rs.TryElect(0).ok());
  ASSERT_TRUE(rs.ClientWrite(0, "w").ok());
  rs.CatchUpAll();

  ASSERT_TRUE(logger.WriteLogFiles(dir.string(), rs.num_nodes()).ok());
  auto read_back = TraceLogger::ReadLogFiles(dir.string());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_EQ(*read_back, logger.LogFiles(rs.num_nodes()));

  // And the pipeline accepts the on-disk logs.
  RaftMongoSpec spec = UnboundedSpec(rs.num_nodes());
  MbtcPipelineOptions options;
  options.checker.allow_stuttering = true;
  MbtcPipeline pipeline(&spec, options);
  EXPECT_TRUE(pipeline.Run(*read_back).passed());
  fs::remove_all(dir);
}

TEST(TraceLoggerFileTest, GapInNodeFilesRejected) {
  // node1.log is missing: node2.log must not be silently dropped.
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "xmodel_trace_log_gap";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name : {"node0.log", "node2.log", "node1.txt"}) {
    std::ofstream(dir / name) << "{}\n";
  }
  auto read = TraceLogger::ReadLogFiles(dir.string());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), common::StatusCode::kNotFound);
  EXPECT_NE(read.status().message().find("node1.log is missing"),
            std::string::npos)
      << read.status().ToString();

  std::ofstream(dir / "node1.log") << "{}\n";
  read = TraceLogger::ReadLogFiles(dir.string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), 3u);
  fs::remove_all(dir);
}

TEST(TraceLoggerFileTest, RewriteWithFewerNodesLeavesNoStaleLogs) {
  // A 3-node run written over a 5-node run must not leave node3.log and
  // node4.log behind for ReadLogFiles to merge in.
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "xmodel_trace_log_rewrite";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto write_scenario = [&dir](const std::string& name) {
    for (const repl::Scenario& s : repl::AllScenarios()) {
      if (s.name != name) continue;
      repl::ReplicaSet rs(s.config);
      TraceLogger logger(&rs.clock());
      rs.AttachTraceSink(&logger);
      EXPECT_TRUE(s.run(rs).ok()) << name;
      EXPECT_TRUE(logger.WriteLogFiles(dir.string(), rs.num_nodes()).ok());
      return logger.LogFiles(rs.num_nodes());
    }
    ADD_FAILURE() << "no scenario " << name;
    return std::vector<std::vector<std::string>>{};
  };
  EXPECT_EQ(write_scenario("elect_and_write/n5_w1_b1").size(), 5u);
  const auto three = write_scenario("elect_and_write/n3_w1_b1");
  ASSERT_EQ(three.size(), 3u);
  auto read = TraceLogger::ReadLogFiles(dir.string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), 3u);
  EXPECT_EQ(*read, three);
  fs::remove_all(dir);
}

TEST(TraceLoggerFileTest, MissingDirectoryRejected) {
  EXPECT_FALSE(TraceLogger::ReadLogFiles("/nonexistent/xmodel").ok());
  repl::SimClock clock;
  TraceLogger logger(&clock);
  EXPECT_FALSE(logger.WriteLogFiles("/nonexistent/xmodel", 3).ok());
}

TEST(SnapshotTracerTest, ConformingRunChecks) {
  // The §6 idea: capture whole-set snapshots between driver calls; the
  // hidden-step search explains multi-transition calls.
  repl::ReplicaSetConfig config;
  repl::ReplicaSet rs(config);
  SnapshotTracer tracer(&rs);

  ASSERT_TRUE(rs.TryElect(0).ok());
  tracer.Capture();
  ASSERT_TRUE(rs.ClientWrite(0, "a").ok());
  tracer.Capture();
  ASSERT_TRUE(rs.ClientWrite(0, "b").ok());
  tracer.Capture();
  for (int n = 1; n < 3; ++n) {
    rs.ReplicateFrom(n, 0);
    tracer.Capture();
  }
  rs.GossipAll();
  tracer.Capture();

  RaftMongoSpec spec = UnboundedSpec(3);
  auto result = tracer.Check(spec);
  EXPECT_TRUE(result.ok()) << result.status.ToString() << " at step "
                           << result.failed_step;
  EXPECT_GT(tracer.num_snapshots(), 4u);
}

TEST(SnapshotTracerTest, SeesThroughInitialSync) {
  // The event-based tracer cannot observe the initial-sync data image
  // (the "Copying the oplog" discrepancy needed post-processing repairs);
  // snapshots read the durable state directly, so no repair is needed.
  repl::ReplicaSetConfig config;
  config.initial_sync_oplog_window = 1;
  repl::ReplicaSet rs(config);
  SnapshotTracer tracer(&rs);

  ASSERT_TRUE(rs.TryElect(0).ok());
  tracer.Capture();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rs.ClientWrite(0, "w").ok());
    tracer.Capture();
  }
  rs.CatchUpAll();
  tracer.Capture();
  ASSERT_TRUE(rs.StartInitialSync(2).ok());
  tracer.Capture();
  ASSERT_TRUE(rs.FinishInitialSync(2).ok());
  tracer.Capture();
  rs.CatchUpAll();
  tracer.Capture();

  RaftMongoSpec spec = UnboundedSpec(3);
  auto result = tracer.Check(spec, /*max_hidden_steps=*/12);
  EXPECT_TRUE(result.ok()) << result.status.ToString() << " at step "
                           << result.failed_step;
}

TEST(SnapshotTracerTest, QuorumBugStillCaught) {
  // Snapshot tracing must not mask the real bug: the commit-point
  // regression after the non-durable "commit" remains unexplainable.
  repl::ReplicaSetConfig config;
  config.count_initial_sync_in_quorum = true;
  repl::ReplicaSet rs(config);
  SnapshotTracer tracer(&rs);

  ASSERT_TRUE(rs.TryElect(0).ok());
  tracer.Capture();
  ASSERT_TRUE(rs.ClientWrite(0, "base").ok());
  tracer.Capture();
  rs.CatchUpAll();
  tracer.Capture();
  rs.network().Partition({{0, 2}});
  ASSERT_TRUE(rs.StartInitialSync(2).ok());
  tracer.Capture();
  ASSERT_TRUE(rs.ClientWrite(0, "not-durable").ok());
  tracer.Capture();
  rs.ReplicateFrom(2, 0);
  tracer.Capture();
  ASSERT_EQ(rs.node(0).commit_point(), (repl::OpTime{1, 2}));
  rs.CrashNode(0, /*unclean=*/false);
  rs.network().Heal();
  ASSERT_TRUE(rs.StartInitialSync(2).ok());
  ASSERT_TRUE(rs.FinishInitialSync(2).ok());
  tracer.Capture();
  ASSERT_TRUE(rs.TryElect(1).ok());
  tracer.Capture();
  ASSERT_TRUE(rs.ClientWrite(1, "after-loss").ok());
  tracer.Capture();
  rs.RestartNode(0);
  rs.GossipAll();
  tracer.Capture();
  rs.CatchUpAll();
  tracer.Capture();

  RaftMongoSpec spec = UnboundedSpec(3);
  auto result = tracer.Check(spec, /*max_hidden_steps=*/12);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace xmodel::trace

namespace xmodel::trace {
namespace {

TEST(SymmetryTest, ReducesRaftMongoStateSpace) {
  // TLC's SYMMETRY sets (via Tasiran et al., paper §3): node identities
  // are interchangeable, so one representative per orbit suffices.
  specs::RaftMongoConfig config;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  specs::RaftMongoSpec plain(config);
  config.use_symmetry = true;
  specs::RaftMongoSpec symmetric(config);

  auto plain_result = tlax::ModelChecker().Check(plain);
  auto symmetric_result = tlax::ModelChecker().Check(symmetric);
  ASSERT_TRUE(plain_result.status.ok());
  ASSERT_TRUE(symmetric_result.status.ok());
  EXPECT_FALSE(plain_result.violation.has_value());
  EXPECT_FALSE(symmetric_result.violation.has_value());
  // Up to |perm(3)| = 6x reduction; in practice 3-6x.
  EXPECT_LT(symmetric_result.distinct_states,
            plain_result.distinct_states / 2);
  EXPECT_GT(symmetric_result.distinct_states,
            plain_result.distinct_states / 7);
}

TEST(SymmetryTest, CanonicalFormIsPermutationInvariant) {
  specs::RaftMongoConfig config;
  config.use_symmetry = true;
  specs::RaftMongoSpec spec(config);
  tlax::State a = specs::RaftMongoSpec::MakeState(
      {"Leader", "Follower", "Follower"}, {2, 1, 1},
      {{1, 1}, {0, 0}, {0, 0}}, {{1, 2}, {1}, {}});
  // The same configuration with nodes relabeled.
  tlax::State b = specs::RaftMongoSpec::MakeState(
      {"Follower", "Follower", "Leader"}, {1, 1, 2},
      {{0, 0}, {0, 0}, {1, 1}}, {{}, {1}, {1, 2}});
  EXPECT_EQ(spec.Canonicalize(a), spec.Canonicalize(b));
  // Canonicalization is idempotent.
  EXPECT_EQ(spec.Canonicalize(spec.Canonicalize(a)), spec.Canonicalize(a));
}

// `state` with node i's column taken from node perm[i].
tlax::State Relabel(const tlax::State& state, const std::vector<int>& perm) {
  std::vector<tlax::Value> vars;
  for (const tlax::Value& tuple : state.vars()) {
    std::vector<tlax::Value> entries;
    for (int node : perm) entries.push_back(tuple.at(node));
    vars.push_back(tlax::Value::Seq(std::move(entries)));
  }
  return tlax::State(std::move(vars));
}

// The reference canonical form: the least state over all n! relabelings
// of the node indices, compared variable by variable.
tlax::State LeastPermutation(const tlax::State& state, int num_nodes) {
  std::vector<int> perm(num_nodes);
  for (int i = 0; i < num_nodes; ++i) perm[i] = i;
  tlax::State best = state;
  while (std::next_permutation(perm.begin(), perm.end())) {
    const tlax::State permuted = Relabel(state, perm);
    for (size_t v = 0; v < state.num_vars(); ++v) {
      const int cmp = tlax::Value::Compare(permuted.var(v), best.var(v));
      if (cmp < 0) best = permuted;
      if (cmp != 0) break;
    }
  }
  return best;
}

// Every state of `spec` reachable under its constraint, by a plain BFS
// that expands only states within the constraint (as the checker does).
std::vector<tlax::State> ReachableStates(const tlax::Spec& spec) {
  std::unordered_set<tlax::State, tlax::StateHash> seen;
  std::vector<tlax::State> order;
  for (const tlax::State& init : spec.InitialStates()) {
    if (seen.insert(init).second) order.push_back(init);
  }
  for (size_t next = 0; next < order.size(); ++next) {
    if (!spec.WithinConstraint(order[next])) continue;
    for (tlax::State& succ : spec.Successors(order[next])) {
      if (seen.insert(succ).second) order.push_back(std::move(succ));
    }
  }
  return order;
}

// Canonicalize sorts the node columns instead of searching every
// permutation; the sorted arrangement must be exactly the least one.
TEST(SymmetryTest, CanonicalizeMatchesPermutationSearch) {
  struct Bounds {
    int num_nodes;
    int64_t max_term;
    int64_t max_oplog;
    size_t reachable;  // The unreduced Detailed check's distinct count.
  };
  for (const Bounds& bounds :
       {Bounds{3, 2, 2, 113'664}, Bounds{4, 1, 2, 128'827}}) {
    SCOPED_TRACE(testing::Message() << bounds.num_nodes << " nodes");
    RaftMongoConfig config;
    config.variant = RaftMongoVariant::kDetailed;
    config.num_nodes = bounds.num_nodes;
    config.max_term = bounds.max_term;
    config.max_oplog_len = bounds.max_oplog;
    const std::vector<tlax::State> states =
        ReachableStates(RaftMongoSpec(config));
    EXPECT_EQ(states.size(), bounds.reachable);
    config.use_symmetry = true;
    const RaftMongoSpec symmetric(config);
    size_t mismatches = 0;
    for (const tlax::State& state : states) {
      const tlax::State expected = LeastPermutation(state, bounds.num_nodes);
      const tlax::State actual = symmetric.Canonicalize(state);
      if (actual != expected ||
          actual.fingerprint() != expected.fingerprint()) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << states.size() << " states";
  }

  // Every relabeling of one 4-node state, with a tie between two columns.
  RaftMongoConfig config;
  config.num_nodes = 4;
  config.use_symmetry = true;
  const RaftMongoSpec spec(config);
  const tlax::State base = RaftMongoSpec::MakeState(
      {"Leader", "Follower", "Follower", "Follower"}, {2, 1, 2, 1},
      {{1, 1}, {0, 0}, {1, 1}, {0, 0}}, {{1, 2}, {1}, {1, 2}, {1}});
  const tlax::State canonical = LeastPermutation(base, 4);
  std::vector<int> perm = {0, 1, 2, 3};
  int relabelings = 0;
  do {
    const tlax::State actual = spec.Canonicalize(Relabel(base, perm));
    EXPECT_EQ(actual, canonical) << "relabeling " << relabelings;
    EXPECT_EQ(actual.fingerprint(), canonical.fingerprint());
    ++relabelings;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(relabelings, 24);
}

TEST(ViewCoverageTest, ViewCollapsesQualitativelySameStates) {
  // TLC's VIEW: measure coverage over an abstraction. Here the view keeps
  // only the x counter, collapsing all y values.
  specs::CounterSpec spec(/*limit=*/3);
  tlax::SpecCoverage coverage;
  coverage.set_view([](const tlax::State& s) { return s.var(0); });
  ASSERT_TRUE(coverage.Initialize(spec).ok());
  EXPECT_EQ(coverage.reachable_states(), 4u);  // x in 0..3.

  auto full = [](int64_t x, int64_t y) {
    tlax::TraceState t;
    t.vars = {tlax::Value::Int(x), tlax::Value::Int(y)};
    return t;
  };
  ASSERT_TRUE(coverage.AddTrace(spec, {full(0, 0), full(0, 1)}).ok());
  EXPECT_EQ(coverage.covered_states(), 1u);  // Only x = 0 seen.
  ASSERT_TRUE(coverage.AddTrace(spec, {full(0, 0), full(1, 0)}).ok());
  EXPECT_EQ(coverage.covered_states(), 2u);
  EXPECT_NEAR(coverage.Fraction(), 0.5, 1e-9);
}

}  // namespace
}  // namespace xmodel::trace
