// Microbenchmarks (google-benchmark) for the hot paths under the
// experiments: single-pair merges, list rebases, sync round trips, spec
// state hashing, and raw model-checking throughput.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "ot/merge.h"
#include "ot/sync.h"
#include "otgo/go_merge.h"
#include "specs/raft_mongo_spec.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"

namespace {

using namespace xmodel;  // NOLINT — bench binaries only.
using ot::Operation;

void BM_MergeSingleTrivial(benchmark::State& state) {
  ot::MergeEngine engine;
  Operation a = Operation::Set(0, 1).At(0, 1);
  Operation b = Operation::Set(2, 9).At(0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Merge(a, b));
  }
}
BENCHMARK(BM_MergeSingleTrivial);

void BM_MergeSingleConflict(benchmark::State& state) {
  ot::MergeEngine engine;
  Operation a = Operation::Move(0, 2).At(0, 1);
  Operation b = Operation::Move(2, 0).At(0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Merge(a, b));
  }
}
BENCHMARK(BM_MergeSingleConflict);

void BM_MergeSwapDecomposition(benchmark::State& state) {
  ot::MergeEngine engine;
  Operation a = Operation::Swap(0, 3).At(0, 1);
  Operation b = Operation::Erase(1).At(0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Merge(a, b));
  }
}
BENCHMARK(BM_MergeSwapDecomposition);

void BM_ListRebase(benchmark::State& state) {
  const int64_t ops = state.range(0);
  ot::MergeEngine engine;
  ot::OpList left, right;
  for (int64_t i = 0; i < ops; ++i) {
    left.push_back(Operation::Insert(0, i).At(0, 1));
    right.push_back(Operation::Insert(0, 100 + i).At(0, 2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.MergeLists(left, right));
  }
  state.SetComplexityN(ops);
}
BENCHMARK(BM_ListRebase)->Arg(2)->Arg(8)->Arg(32)->Complexity();

void BM_GoListRebase(benchmark::State& state) {
  const int64_t ops = state.range(0);
  otgo::GoMergeEngine engine;
  ot::OpList left, right;
  for (int64_t i = 0; i < ops; ++i) {
    left.push_back(Operation::Insert(0, i).At(0, 1));
    right.push_back(Operation::Insert(0, 100 + i).At(0, 2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.TransformLists(left, right));
  }
  state.SetComplexityN(ops);
}
BENCHMARK(BM_GoListRebase)->Arg(2)->Arg(8)->Arg(32)->Complexity();

void BM_SyncRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    ot::SyncSystem sync({1, 2, 3}, 3);
    sync.ClientApply(0, Operation::Set(0, 9).At(0, 1)).ok();
    sync.ClientApply(1, Operation::Insert(1, 8).At(0, 2)).ok();
    sync.ClientApply(2, Operation::Erase(2).At(0, 3)).ok();
    benchmark::DoNotOptimize(sync.SyncAll());
  }
}
BENCHMARK(BM_SyncRoundTrip);

void BM_SpecStateConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(specs::RaftMongoSpec::MakeState(
        {"Leader", "Follower", "Follower"}, {2, 2, 1},
        {{2, 1}, {2, 1}, {0, 0}}, {{1, 2}, {1, 2}, {1}}));
  }
}
BENCHMARK(BM_SpecStateConstruction);

void BM_ModelCheckCounter(benchmark::State& state) {
  // Raw explicit-state throughput on a trivially-shaped spec.
  const int64_t limit = state.range(0);
  uint64_t states = 0;
  for (auto _ : state) {
    specs::CounterSpec spec(limit);
    auto result = tlax::ModelChecker().Check(spec);
    states = result.distinct_states;
    benchmark::DoNotOptimize(result);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelCheckCounter)->Arg(50)->Arg(200);

void BM_ModelCheckRaftMongoTiny(benchmark::State& state) {
  specs::RaftMongoConfig config;
  config.max_term = 1;
  config.max_oplog_len = 2;
  for (auto _ : state) {
    specs::RaftMongoSpec spec(config);
    benchmark::DoNotOptimize(tlax::ModelChecker().Check(spec));
  }
}
BENCHMARK(BM_ModelCheckRaftMongoTiny);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the harness consumes its own
// flags and forwards every other argument to google-benchmark, which
// rejects the ones it does not know. Quick mode runs a single cheap
// benchmark as the CI smoke test.
int main(int argc, char** argv) {
  std::vector<std::string> forwarded;
  xmodel::bench::Harness bench("merge_micro", argc, argv,
                               [&](std::string_view arg, std::string*) {
                                 forwarded.emplace_back(arg);
                                 return xmodel::common::FlagResult::kParsed;
                               });
  std::vector<char*> filtered = {argv[0]};
  for (std::string& arg : forwarded) filtered.push_back(arg.data());
  std::string quick_filter = "--benchmark_filter=BM_MergeSingleTrivial";
  if (bench.quick()) filtered.push_back(quick_filter.data());

  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             filtered.data())) {
    return bench.Fail("unrecognized benchmark arguments");
  }
  size_t run = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (run == 0) return bench.Fail("no benchmarks matched");
  xmodel::obs::MetricsRegistry::Global()
      .GetCounter("bench.merge_micro.benchmarks.run")
      .Increment(run);
  bench.AddResult("benchmarks_run", static_cast<double>(run));
  return bench.Finish(0);
}
