// Determinism of parallel state-graph recording: a record_graph run must
// produce a graph — node ids, edge lists, duplicate-edge count, and the
// full DOT serialization, byte for byte — that is identical at 1, 2, and
// 4 workers, on clean specs and on violating configurations. This is the
// property that lets MBTCG and liveness checking run at full worker
// parallelism (see DESIGN.md "Parallel graph recording").
//
// Also home to the concurrent-recorder hammer, which drives the
// StateGraph recording API directly from racing threads; run it under the
// TSan CI job.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "specs/array_ot_spec.h"
#include "specs/locking_spec.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"
#include "tlax/liveness.h"
#include "tlax/spec.h"
#include "tlax/state_graph.h"
#include "tlax/value.h"

namespace xmodel::tlax {
namespace {

// Runs `spec` with record_graph at several worker counts and asserts the
// recorded graph matches the single-worker baseline exactly.
void ExpectGraphInvariant(const Spec& spec, CheckerOptions options = {}) {
  options.record_graph = true;
  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  ASSERT_NE(base.graph, nullptr);
  EXPECT_EQ(base.workers_used, 1);
  const std::string base_dot = base.graph->ToDot(spec.variables());

  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << spec.name() << " with " << workers
                                    << " workers");
    options.num_workers = workers;
    CheckResult result = ModelChecker(options).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_NE(result.graph, nullptr);
    EXPECT_EQ(result.workers_used, workers);

    EXPECT_EQ(result.graph->num_states(), base.graph->num_states());
    EXPECT_EQ(result.graph->num_edges(), base.graph->num_edges());
    EXPECT_EQ(result.graph->num_duplicate_edges(),
              base.graph->num_duplicate_edges());
    EXPECT_EQ(result.graph->initial_states(), base.graph->initial_states());
    EXPECT_EQ(result.graph->ToDot(spec.variables()), base_dot)
        << "DOT output must be byte-identical across worker counts";

    ASSERT_EQ(result.violation.has_value(), base.violation.has_value());
    if (base.violation.has_value()) {
      EXPECT_EQ(result.violation->kind, base.violation->kind);
    }
  }
}

TEST(GraphDeterminismTest, RaftMongoDetailed) {
  specs::RaftMongoConfig config;
  config.variant = specs::RaftMongoVariant::kDetailed;
  config.num_nodes = 3;
  config.max_term = 2;
  config.max_oplog_len = 2;
  ExpectGraphInvariant(specs::RaftMongoSpec(config));
}

TEST(GraphDeterminismTest, LockingSpec) {
  specs::LockingConfig config;
  config.num_contexts = 2;
  ExpectGraphInvariant(specs::LockingSpec(config));
}

TEST(GraphDeterminismTest, ArrayOt) {
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  ExpectGraphInvariant(specs::ArrayOtSpec(config));
}

TEST(GraphDeterminismTest, ArrayOtWithInjectedTranscriptionError) {
  // A violating run still settles the violating level into the graph
  // before the winner is chosen, so the recorded graph — violating states
  // included — must be worker-count-invariant too.
  specs::ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 2;
  config.inject_transcription_error = true;
  specs::ArrayOtSpec spec(config);
  CheckerOptions options;
  options.record_graph = true;
  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_TRUE(base.violation.has_value())
      << "the injected transcription error must be caught";
  ExpectGraphInvariant(spec);
}

TEST(GraphDeterminismTest, LivenessResultsAreWorkerInvariant) {
  // Liveness consumes the recorded graph, so byte-identity must carry
  // through to SCC structure and leads-to verdicts.
  specs::LockingConfig config;
  config.num_contexts = 2;
  specs::LockingSpec spec(config);
  CheckerOptions options;
  options.record_graph = true;

  options.num_workers = 1;
  CheckResult base = ModelChecker(options).Check(spec);
  ASSERT_NE(base.graph, nullptr);
  uint32_t base_sccs = 0;
  StronglyConnectedComponents(*base.graph, &base_sccs);

  for (int workers : {2, 4}) {
    options.num_workers = workers;
    CheckResult result = ModelChecker(options).Check(spec);
    ASSERT_NE(result.graph, nullptr);
    uint32_t sccs = 0;
    std::vector<uint32_t> ids =
        StronglyConnectedComponents(*result.graph, &sccs);
    EXPECT_EQ(sccs, base_sccs) << "workers=" << workers;
    EXPECT_EQ(ids.size(), result.graph->num_states());
  }
}

// Drives the concurrent recording API directly from racing threads — the
// pattern the checker uses, minus the checker: N workers record
// interleaved cross-edges, then the barrier numbers the level's nodes and
// resolves the edges, each step split across racing threads again.
// Primarily a TSan target; the assertions also pin the settled shape.
TEST(GraphDeterminismTest, ConcurrentRecorderHammer) {
  constexpr int kWorkers = 4;
  constexpr uint64_t kNodesPerWorker = 1000;
  const uint64_t total = kWorkers * kNodesPerWorker;

  // One root per worker: a node is expanded by exactly one worker, so
  // each worker's edges leave its own root (ids 0..kWorkers-1).
  StateGraph graph;
  graph.BeginRecording(kWorkers);
  constexpr uint64_t kRootFp = 1'000'000;
  for (int w = 0; w < kWorkers; ++w) {
    const State root(std::vector<Value>{Value::Int(-1 - w)});
    ASSERT_EQ(graph.RegisterSeed(kRootFp + w, root, /*constrained=*/true),
              static_cast<uint32_t>(w));
  }
  const auto run_workers = [](const auto& body) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) threads.emplace_back(body, w);
    for (std::thread& t : threads) t.join();
  };

  run_workers([&graph](int w) {
    const uint32_t root = static_cast<uint32_t>(w);
    for (uint64_t i = 0; i < kNodesPerWorker; ++i) {
      const uint64_t fp = 2 + static_cast<uint64_t>(w) * kNodesPerWorker + i;
      graph.RecordEdge(w, root, fp, /*action=*/0);
      // Duplicate edge to a fingerprint some other worker discovers (or
      // nobody does — dropped either way without crashing).
      graph.RecordEdge(w, root, fp + 1, /*action=*/1);
    }
  });
  // The level's next frontier in settled (here: fingerprint) order; every
  // 10th state is outside the constraint, so it never reaches the
  // frontier and edges to it must resolve to kNoId.
  std::vector<uint64_t> next;
  for (uint64_t fp = 2; fp < 2 + total; ++fp) {
    if (fp % 10 != 0) next.push_back(fp);
  }
  const uint32_t first = graph.AddNodes(next.size());
  ASSERT_EQ(first, static_cast<uint32_t>(kWorkers));
  run_workers([&](int w) {
    for (size_t i = static_cast<size_t>(w); i < next.size(); i += kWorkers) {
      graph.SetNode(first + static_cast<uint32_t>(i), next[i],
                    State(std::vector<Value>{
                        Value::Int(static_cast<int64_t>(next[i]))}));
    }
  });
  run_workers([&graph](int w) { graph.ResolveEdges(w); });

  // The roots + every constrained node got an id, dense and ascending in
  // settled order.
  EXPECT_EQ(graph.num_states(), next.size() + kWorkers);
  EXPECT_EQ(graph.IdOf(kRootFp), 0u);
  uint32_t expect_id = first;
  for (uint64_t fp = 2; fp < 2 + total; ++fp) {
    if (fp % 10 != 0) {
      EXPECT_EQ(graph.IdOf(fp), expect_id) << "fp=" << fp;
      EXPECT_EQ(graph.state(expect_id),
                State(std::vector<Value>{
                    Value::Int(static_cast<int64_t>(fp))}));
      ++expect_id;
    } else {
      EXPECT_EQ(graph.IdOf(fp), StateGraph::kNoId) << "fp=" << fp;
    }
  }
  // Every surviving edge leaves a root, in its worker's recording order;
  // edges to unconstrained or never-numbered fingerprints were dropped.
  size_t root_edges = 0;
  for (int w = 0; w < kWorkers; ++w) {
    const std::vector<StateGraph::Edge>& out =
        graph.out_edges(static_cast<uint32_t>(w));
    root_edges += out.size();
    for (size_t e = 1; e < out.size(); ++e) {
      EXPECT_LE(out[e - 1].to, out[e].to) << "worker " << w;
    }
  }
  EXPECT_EQ(root_edges, graph.num_edges());
  EXPECT_GT(graph.num_edges(), next.size());
}

}  // namespace
}  // namespace xmodel::tlax
