#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ot/coverage.h"
#include "ot/merge.h"
#include "otgo/go_merge.h"

namespace xmodel::ot {
namespace {

// Enumerates every distinct operation against an n-element array
// (including boundary indexes), stamped with the given metadata.
std::vector<Operation> AllOps(int n, int64_t ts, int64_t cid,
                              bool include_swap) {
  std::vector<Operation> ops;
  for (int i = 0; i < n; ++i) ops.push_back(Operation::Set(i, 900 + i));
  for (int i = 0; i <= n; ++i) ops.push_back(Operation::Insert(i, 950 + i));
  for (int f = 0; f < n; ++f) {
    for (int t = 0; t < n; ++t) ops.push_back(Operation::Move(f, t));
  }
  if (include_swap) {
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) ops.push_back(Operation::Swap(x, y));
    }
  }
  for (int i = 0; i < n; ++i) ops.push_back(Operation::Erase(i));
  ops.push_back(Operation::Clear());
  for (Operation& op : ops) op = op.At(ts, cid);
  return ops;
}

// One TP1 sweep configuration: array length and the two ops' timestamps
// (equal timestamps exercise the client-id tie-breaks in both directions).
// Every field is 64-bit so the struct has no padding: gtest prints the
// param's raw bytes into the test name, and padding bytes would make that
// name differ from run to run.
struct Tp1Config {
  int64_t array_len;
  int64_t ts_a;
  int64_t ts_b;
};

class MergeTp1Test : public ::testing::TestWithParam<Tp1Config> {};

// The convergence property (TP1): for every pair of concurrent operations
// a, b valid on a state S,   S·a·T(b,a) == S·b·T(a,b).
TEST_P(MergeTp1Test, EveryPairConverges) {
  const Tp1Config config = GetParam();
  MergeEngine engine;
  Array base;
  for (int i = 0; i < config.array_len; ++i) base.push_back(100 + i);

  int checked = 0;
  for (const Operation& a : AllOps(config.array_len, config.ts_a, 1, true)) {
    for (const Operation& b :
         AllOps(config.array_len, config.ts_b, 2, true)) {
      ++checked;
      auto merged = engine.Merge(a, b);
      ASSERT_TRUE(merged.ok())
          << a.ToString() << " x " << b.ToString() << ": "
          << merged.status().ToString();
      Array left = base, right = base;
      ASSERT_TRUE(a.Apply(&left).ok());
      ASSERT_TRUE(ApplyAll(merged->right, &left).ok())
          << a.ToString() << " x " << b.ToString();
      ASSERT_TRUE(b.Apply(&right).ok());
      ASSERT_TRUE(ApplyAll(merged->left, &right).ok())
          << a.ToString() << " x " << b.ToString();
      EXPECT_EQ(left, right)
          << a.ToString() << " x " << b.ToString() << " -> "
          << ToString(merged->left) << " / " << ToString(merged->right);
    }
  }
  EXPECT_GT(checked, 0);
}

// The merge relation is symmetric: Merge(b, a) is Merge(a, b) mirrored.
TEST_P(MergeTp1Test, MergeIsSymmetric) {
  const Tp1Config config = GetParam();
  MergeEngine engine;
  for (const Operation& a : AllOps(config.array_len, config.ts_a, 1, true)) {
    for (const Operation& b :
         AllOps(config.array_len, config.ts_b, 2, true)) {
      auto ab = engine.Merge(a, b);
      auto ba = engine.Merge(b, a);
      ASSERT_TRUE(ab.ok());
      ASSERT_TRUE(ba.ok());
      EXPECT_EQ(ab->left, ba->right) << a.ToString() << " x " << b.ToString();
      EXPECT_EQ(ab->right, ba->left) << a.ToString() << " x " << b.ToString();
    }
  }
}

// The Go re-implementation agrees exactly with the C++ rules on every
// swap-free pair.
TEST_P(MergeTp1Test, GoImplementationAgrees) {
  const Tp1Config config = GetParam();
  MergeEngine cpp_engine;
  otgo::GoMergeEngine go_engine;
  for (const Operation& a :
       AllOps(config.array_len, config.ts_a, 1, false)) {
    for (const Operation& b :
         AllOps(config.array_len, config.ts_b, 2, false)) {
      auto cpp = cpp_engine.MergeLists({a}, {b});
      auto go = go_engine.TransformLists({a}, {b});
      ASSERT_TRUE(cpp.ok());
      ASSERT_TRUE(go.ok());
      EXPECT_EQ(cpp->left, go->left) << a.ToString() << " x " << b.ToString();
      EXPECT_EQ(cpp->right, go->right)
          << a.ToString() << " x " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, MergeTp1Test,
    ::testing::Values(Tp1Config{0, 1, 1}, Tp1Config{1, 1, 1},
                      Tp1Config{2, 1, 1}, Tp1Config{3, 1, 1},
                      Tp1Config{4, 1, 1}, Tp1Config{3, 1, 2},
                      Tp1Config{3, 2, 1}, Tp1Config{4, 1, 2},
                      Tp1Config{4, 2, 1}),
    [](const ::testing::TestParamInfo<Tp1Config>& info) {
      return "len" + std::to_string(info.param.array_len) + "_ts" +
             std::to_string(info.param.ts_a) + "v" +
             std::to_string(info.param.ts_b);
    });

TEST(MergeTest, FigureSevenRule) {
  // The paper's worked example (Figures 7-9): ArraySet{2, 4} merged with
  // ArrayErase{1} on {1, 2, 3}.
  MergeEngine engine;
  Operation set = Operation::Set(2, 4).At(0, 1);
  Operation erase = Operation::Erase(1).At(0, 2);
  auto merged = engine.Merge(set, erase);
  ASSERT_TRUE(merged.ok());
  // The set's index shifts down past the erase; the erase is unchanged.
  ASSERT_EQ(merged->left.size(), 1u);
  EXPECT_TRUE(merged->left[0].SameEffect(Operation::Set(1, 4)));
  ASSERT_EQ(merged->right.size(), 1u);
  EXPECT_TRUE(merged->right[0].SameEffect(Operation::Erase(1)));
}

TEST(MergeTest, SetOfErasedElementDiscarded) {
  MergeEngine engine;
  auto merged = engine.Merge(Operation::Set(1, 4).At(0, 1),
                             Operation::Erase(1).At(0, 2));
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->left.empty());  // "RESOLUTION: Discard the ArraySet."
  EXPECT_EQ(merged->right.size(), 1u);
}

TEST(MergeTest, SwapDecomposesAgainstErase) {
  MergeEngine engine;
  // Swap(0,2) vs Erase(1): transformed swap side arrives as moves.
  auto merged = engine.Merge(Operation::Swap(0, 2).At(0, 1),
                             Operation::Erase(1).At(0, 2));
  ASSERT_TRUE(merged.ok());
  Array left = {1, 2, 3}, right = {1, 2, 3};
  ASSERT_TRUE(Operation::Swap(0, 2).Apply(&left).ok());
  ASSERT_TRUE(ApplyAll(merged->right, &left).ok());
  ASSERT_TRUE(Operation::Erase(1).Apply(&right).ok());
  ASSERT_TRUE(ApplyAll(merged->left, &right).ok());
  EXPECT_EQ(left, right);
}

TEST(MergeTest, SwapMoveBugNonTermination) {
  // §5.1.3: merging ArraySwap with the ArrayMove spanning the same range
  // never terminates in the buggy implementation; the recursion budget
  // reports it (TLC died with a StackOverflowError).
  MergeConfig config;
  config.enable_swap_move_bug = true;
  MergeEngine buggy(config);
  auto merged = buggy.Merge(Operation::Move(0, 2).At(0, 1),
                            Operation::Swap(0, 2).At(0, 2));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), common::StatusCode::kResourceExhausted);

  // The fixed rules terminate on the same input.
  MergeEngine fixed;
  EXPECT_TRUE(fixed.Merge(Operation::Move(0, 2).At(0, 1),
                          Operation::Swap(0, 2).At(0, 2))
                  .ok());

  // And the bug only bites that specific shape.
  EXPECT_TRUE(buggy.Merge(Operation::Move(0, 1).At(0, 1),
                          Operation::Swap(0, 2).At(0, 2))
                  .ok());
}

TEST(MergeTest, ListTransformRandomizedConvergence) {
  // Property: for random op LISTS built on diverged replicas, the rebase
  // converges both sides.
  MergeEngine engine;
  common::Rng rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    int n = static_cast<int>(rng.Below(4));
    Array base;
    for (int i = 0; i < n; ++i) base.push_back(10 + i);
    Array sa = base, sb = base;
    OpList la, lb;
    auto grow = [&rng](Array* state, int cid, OpList* out) {
      int len = static_cast<int>(rng.Below(4));
      for (int i = 0; i < len; ++i) {
        int m = static_cast<int>(state->size());
        Operation op = Operation::Insert(0, 0);
        switch (rng.Below(5)) {
          case 0:
            if (m == 0) continue;
            op = Operation::Set(rng.Below(m), rng.Below(50));
            break;
          case 1:
            op = Operation::Insert(rng.Below(m + 1), rng.Below(50));
            break;
          case 2:
            if (m == 0) continue;
            op = Operation::Move(rng.Below(m), rng.Below(m));
            break;
          case 3:
            if (m == 0) continue;
            op = Operation::Erase(rng.Below(m));
            break;
          default:
            op = Operation::Clear();
            break;
        }
        Operation stamped = op.At(rng.Below(3), cid);
        if (stamped.Apply(state).ok()) out->push_back(stamped);
      }
    };
    grow(&sa, 1, &la);
    grow(&sb, 2, &lb);
    auto merged = engine.MergeLists(la, lb);
    ASSERT_TRUE(merged.ok());
    ASSERT_TRUE(ApplyAll(merged->right, &sa).ok());
    ASSERT_TRUE(ApplyAll(merged->left, &sb).ok());
    EXPECT_EQ(sa, sb) << "trial " << trial;
  }
}

TEST(CoverageTest, UniverseDeclared) {
  auto& registry = CoverageRegistry::Instance();
  // The fixed branch universe for the merge rules (the paper's analogue
  // counted 86 LCOV branches).
  EXPECT_EQ(registry.total_branches(), 61u);
}

TEST(CoverageTest, HitAndReset) {
  auto& registry = CoverageRegistry::Instance();
  registry.Reset();
  EXPECT_EQ(registry.covered_branches(), 0u);
  MergeEngine engine;
  ASSERT_TRUE(
      engine.Merge(Operation::Set(0, 1).At(0, 1), Operation::Set(0, 2).At(0, 2))
          .ok());
  EXPECT_GE(registry.covered_branches(), 1u);
  EXPECT_GT(registry.hits("SetSet_same_right_wins"), 0u);
  registry.Reset();
  EXPECT_EQ(registry.hits("SetSet_same_right_wins"), 0u);
}

TEST(CoverageTest, ConcurrentHitsCountExactly) {
  // Parallel MBTCG case runs hit the registry from every worker; no hit
  // may be lost.
  auto& registry = CoverageRegistry::Instance();
  registry.Reset();
  const std::vector<std::string> names = {
      "SetSet_diff", "InsertInsert_left_lower", "MoveMove_diff_src_before",
      "EraseErase_same", "MoveSwap_buggy_rewrite"};
  constexpr int kThreads = 4;
  constexpr int kHitsPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&names, t] {
      auto& r = CoverageRegistry::Instance();
      for (int i = 0; i < kHitsPerThread; ++i) {
        r.Hit(names[static_cast<size_t>(t + i) % names.size()]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every thread spreads its hits round-robin from a different start, so
  // each name's exact total is known.
  std::vector<uint64_t> expected(names.size(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kHitsPerThread; ++i) {
      ++expected[static_cast<size_t>(t + i) % names.size()];
    }
  }
  for (size_t n = 0; n < names.size(); ++n) {
    EXPECT_EQ(registry.hits(names[n]), expected[n]) << names[n];
  }
  EXPECT_EQ(registry.covered_branches(), names.size() - 1);
  registry.Reset();
}

TEST(CoverageTest, ExcludedBranchDoesNotCount) {
  auto& registry = CoverageRegistry::Instance();
  registry.Reset();
  MergeConfig config;
  config.enable_swap_move_bug = true;
  MergeEngine buggy(config);
  buggy.Merge(Operation::Move(0, 2).At(0, 1), Operation::Swap(0, 2).At(0, 2))
      .ok();
  // The buggy branch was hit but is excluded from the universe.
  EXPECT_GT(registry.hits("MoveSwap_buggy_rewrite"), 0u);
  for (const std::string& name : registry.UncoveredBranches()) {
    EXPECT_NE(name, "MoveSwap_buggy_rewrite");
  }
}

}  // namespace
}  // namespace xmodel::ot
