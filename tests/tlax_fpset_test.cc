// Unit tests for the sharded fingerprint table backing the parallel
// checker: the flat per-shard table against a reference map, insert/merge
// semantics, the allocated-bytes memory budget, batched inserts against
// one-at-a-time ones, and multi-threaded insert hammers that the TSan CI
// job runs to certify the locking.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "tlax/fp_table.h"
#include "tlax/fpset.h"
#include "tlax/state.h"
#include "tlax/value.h"

namespace xmodel::tlax {
namespace {

State MakeState(int64_t x, int64_t y) {
  return State({Value::Int(x), Value::Int(y)});
}

TEST(FingerprintTest, StableAndDiscriminating) {
  State a = MakeState(1, 2);
  State b = MakeState(1, 2);
  State c = MakeState(2, 1);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_NE(Fingerprint(a), Fingerprint(c));
  // The table key is decorrelated from the raw state hash other layers use.
  EXPECT_NE(Fingerprint(a), a.fingerprint());
}

TEST(FpsetTest, InsertThenDuplicate) {
  FingerprintSet set;
  FpInsert first = set.Insert(/*fp=*/100, /*pred_fp=*/0, kFpInitialAction,
                              /*depth=*/0, /*order_key=*/0);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(set.size(), 1u);

  FpInsert dup = set.Insert(100, /*pred_fp=*/7, /*action=*/3, /*depth=*/5,
                            /*order_key=*/99);
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(set.size(), 1u);

  auto edge = set.GetEdge(100);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->action, kFpInitialAction)
      << "a later, deeper insert must not overwrite the discovery edge";
  EXPECT_EQ(edge->depth, 0) << "the record keeps its first depth";
  EXPECT_FALSE(set.GetEdge(101).has_value());
}

TEST(FpsetTest, MinMergeAdoptsSmallerSameDepthKey) {
  FingerprintSet set;
  set.Insert(/*fp=*/1, 0, kFpInitialAction, 0, 0);
  set.Insert(/*fp=*/2, 0, kFpInitialAction, 0, 1);
  // First discovery of fp 50 at depth 1 via pred 2, key 40.
  set.Insert(50, /*pred_fp=*/2, /*action=*/4, /*depth=*/1, /*order_key=*/40);
  // A same-depth rediscovery with a SMALLER key wins the predecessor slot…
  set.Insert(50, /*pred_fp=*/1, /*action=*/2, /*depth=*/1, /*order_key=*/10);
  auto edge = set.GetEdge(50);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->pred_fp, 1u);
  EXPECT_EQ(edge->action, 2);
  EXPECT_EQ(edge->order_key, 10u);
  // …and a larger key does not.
  set.Insert(50, /*pred_fp=*/2, /*action=*/9, /*depth=*/1, /*order_key=*/20);
  edge = set.GetEdge(50);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->pred_fp, 1u);
  EXPECT_EQ(edge->order_key, 10u);
}

TEST(FpsetTest, ShardCountRoundsUpToPowerOfTwo) {
  FingerprintSet::Options options;
  options.num_shards = 5;
  FingerprintSet set(options);
  EXPECT_EQ(set.num_shards(), 8u);
  // Single-shard degenerate case still works (shift-by-64 guard).
  options.num_shards = 1;
  FingerprintSet one(options);
  set.Insert(0xFFFFFFFFFFFFFFFFull, 0, kFpInitialAction, 0, 0);
  one.Insert(0xFFFFFFFFFFFFFFFFull, 0, kFpInitialAction, 0, 0);
  EXPECT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.size(), 1u);
}

using internal::FpSlot;
using internal::FpTable;

// Mostly random keys, plus one in eight drawn from a few fixed low-bit
// patterns (with 64 possible high parts): those share home slots at
// every capacity up to 2^20, and the all-ones patterns home on the last
// slots, so their clusters wrap around to index 0.
uint64_t ClusteredKey(common::Rng& rng) {
  static constexpr uint64_t kLowPatterns[] = {0, 1, 2, 0xFFFFF, 0xFFFFE};
  if (rng.Below(8) != 0) return rng.Next();
  return (rng.Below(64) << 20) |
         kLowPatterns[rng.Below(std::size(kLowPatterns))];
}

// Whether some record sits at a lower index than its home slot, i.e. its
// probe wrapped around the end of the array.
bool HasWrappedRecord(const FpTable& table) {
  for (size_t i = 0; i < table.capacity(); ++i) {
    const FpSlot& s = table.slot(i);
    if (s.occupied() && i < (s.fp & (table.capacity() - 1))) return true;
  }
  return false;
}

TEST(FpsetTest, TableMatchesReferenceMap) {
  std::atomic<size_t> allocated{0};
  FpTable table;
  table.Init(&allocated);
  std::unordered_map<uint64_t, uint64_t> ref;  // fp -> pred_fp payload.
  common::Rng rng(20260917);
  bool saw_wrap = false;

  const auto check_all = [&table, &ref] {
    for (const auto& [fp, payload] : ref) {
      const size_t i = table.Find(fp);
      ASSERT_NE(i, FpTable::kNone) << "fp " << fp;
      EXPECT_EQ(table.slot(i).pred_fp, payload) << "fp " << fp;
    }
  };

  // Fingerprint 0 is an ordinary key: absent, then inserted. It stays
  // live through the growth below, homed on slot 0 beside the
  // low-pattern-0 keys.
  EXPECT_EQ(table.Find(0), FpTable::kNone);
  bool inserted = false;
  table.slot(table.FindOrInsert(0, &inserted)).pred_fp = 77;
  EXPECT_TRUE(inserted);
  ref[0] = 77;

  std::vector<uint64_t> drawn;  // Keys already inserted.
  constexpr int kOps = 40'000;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t roll = rng.Below(10);
    uint64_t fp = ClusteredKey(rng);
    if (!drawn.empty() && rng.Below(2) == 0) {
      fp = drawn[rng.Below(drawn.size())];
    }
    if (roll < 6) {
      const size_t i = table.FindOrInsert(fp, &inserted);
      EXPECT_EQ(inserted, ref.count(fp) == 0) << "fp " << fp;
      if (inserted) {
        table.slot(i).pred_fp = fp ^ 0x5555;
        ref[fp] = fp ^ 0x5555;
        drawn.push_back(fp);
      } else {
        EXPECT_EQ(table.slot(i).pred_fp, ref[fp]) << "fp " << fp;
      }
    } else {
      const size_t i = table.Find(fp);
      ASSERT_EQ(i != FpTable::kNone, ref.count(fp) == 1) << "fp " << fp;
      if (i != FpTable::kNone) {
        EXPECT_EQ(table.slot(i).pred_fp, ref[fp]);
      }
    }
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_LE(table.size() * 8, table.capacity() * 7) << "load above 7/8";
    if (op % 512 == 0) {
      saw_wrap = saw_wrap || HasWrappedRecord(table);
      check_all();
    }
  }
  check_all();
  EXPECT_GE(table.capacity(), FpTable::kMinCapacity << 8)
      << "the run must grow the table across 8 or more doublings";
  EXPECT_TRUE(saw_wrap) << "some probe cluster must wrap past the end";
  EXPECT_EQ(allocated.load(), table.bytes());

  // Clear drops every record and shrinks the table to the floor.
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), FpTable::kMinCapacity);
  for (const auto& [fp, payload] : ref) {
    ASSERT_EQ(table.Find(fp), FpTable::kNone) << "fp " << fp;
  }
  EXPECT_EQ(allocated.load(), FpTable::kMinCapacity * sizeof(FpSlot));
}

TEST(FpsetTest, EvictionFollowsAllocatedBytes) {
  FingerprintSet::Options options;
  options.num_shards = 2;
  options.spill_dir = common::StrCat(::testing::TempDir(),
                                     "/fpset_alloc_budget");
  options.memory_budget_bytes = 8 * 1024;
  FingerprintSet set(options);
  const size_t floor = 2 * FpTable::kMinCapacity * sizeof(FpSlot);
  EXPECT_EQ(set.table_bytes(), floor);

  auto insert_new = [&set](uint64_t fp, uint64_t key) {
    return set.Insert(fp, 0, kFpInitialAction, 0, key).inserted;
  };
  // Records resident in the hot table.
  auto hot = [&set] { return set.size() - set.spill_stats().spilled_records; };
  uint64_t evictions = 0;
  for (uint64_t k = 1; evictions < 3; ++k) {
    ASSERT_TRUE(insert_new(common::Mix64(k), k));
    const size_t before = set.table_bytes();
    ASSERT_TRUE(set.EvictIfOverBudget().ok());
    if (before > options.memory_budget_bytes) {
      ++evictions;
      EXPECT_EQ(set.spill_stats().generations, evictions);
      EXPECT_EQ(hot(), 0u);
      EXPECT_EQ(set.table_bytes(), floor) << "evicted shards shrink back";
    } else {
      EXPECT_EQ(set.spill_stats().generations, evictions)
          << "no eviction at or under the budget";
      EXPECT_EQ(set.table_bytes(), before);
    }
  }
  // EvictAll returns a grown table to the floor, even under the budget.
  for (uint64_t k = 1; set.table_bytes() == floor; ++k) {
    ASSERT_TRUE(insert_new(k << 40, k));
  }
  ASSERT_LE(set.table_bytes(), options.memory_budget_bytes);
  ASSERT_TRUE(set.EvictAll().ok());
  EXPECT_EQ(set.table_bytes(), floor);
  EXPECT_EQ(hot(), 0u);
  EXPECT_TRUE(set.spill_status().ok());
}

// Concurrent insert hammer: T threads race to insert an overlapping key
// range; exactly one inserter may win each key, the final size must be
// exact, and every record must carry one of the racing predecessors.
// Run under TSan in CI to certify the shard locking.
TEST(FpsetTest, ConcurrentInsertHammer) {
  FingerprintSet::Options options;
  options.num_shards = 8;  // Few shards -> plenty of lock contention.
  FingerprintSet set(options);
  constexpr int kThreads = 8;
  constexpr uint64_t kKeys = 20'000;
  std::atomic<uint64_t> wins{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &wins, t] {
      uint64_t local_wins = 0;
      for (uint64_t k = 0; k < kKeys; ++k) {
        // Spread keys over all shards; every thread visits every key.
        uint64_t fp = common::Mix64(k + 1);
        FpInsert r = set.Insert(fp, /*pred_fp=*/static_cast<uint64_t>(t),
                                /*action=*/static_cast<uint16_t>(t),
                                /*depth=*/1, /*order_key=*/k);
        if (r.inserted) ++local_wins;
      }
      wins.fetch_add(local_wins, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(set.size(), kKeys);
  EXPECT_EQ(wins.load(), kKeys) << "exactly one inserter wins each key";
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto edge = set.GetEdge(common::Mix64(k + 1));
    ASSERT_TRUE(edge.has_value());
    EXPECT_LT(edge->pred_fp, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(edge->action, static_cast<uint16_t>(edge->pred_fp))
        << "pred_fp and action must come from the same racing insert";
    EXPECT_EQ(edge->depth, 1);
  }
  EXPECT_GT(set.load_factor(), 0.0);
  EXPECT_LE(set.load_factor(), 0.875);
}

// InsertBatch against the same items inserted one at a time in order, in
// every mode the engine uses it in. Keys come from a small pool spread
// over few shards, so a batch holds many items per shard, duplicates of
// one fingerprint, and same-depth revisits with smaller and larger keys.
// Between batches both spill sets see the same evictions, so later
// batches revisit records on disk too.
TEST(FpsetTest, InsertBatchEqualsOneAtATime) {
  // Each mode's value seeds its random items.
  enum class Mode { kPlain = 0, kSpill = 3 };
  for (Mode mode : {Mode::kPlain, Mode::kSpill}) {
    const int m = static_cast<int>(mode);
    SCOPED_TRACE(testing::Message() << "mode " << m);
    auto options_for = [&](const char* side) {
      FingerprintSet::Options o;
      o.num_shards = 4;
      if (mode == Mode::kSpill) {
        o.spill_dir = common::StrCat(::testing::TempDir(), "/fpset_batch_",
                                     side);
      }
      return o;
    };
    FingerprintSet one(options_for("one"));
    FingerprintSet batched(options_for("batched"));
    common::Rng rng(0xba7c4 + static_cast<uint64_t>(m));
    std::vector<uint64_t> pool;
    for (uint64_t k = 0; k < 300; ++k) pool.push_back(common::Mix64(k));

    uint64_t revisits = 0;
    uint64_t disk_hits = 0;
    std::unordered_set<uint64_t> evicted;  // Spill: sealed to disk.
    for (int round = 0; round < 40; ++round) {
      std::vector<FpInsertItem> items(1 + rng.Below(400));
      for (FpInsertItem& item : items) {
        item.fp = pool[rng.Below(pool.size())];
        item.pred_fp = rng.Next();
        item.order_key = rng.Below(1000);
        item.depth = 1 + static_cast<int64_t>(rng.Below(2));
        item.action = static_cast<uint16_t>(rng.Below(4));
      }
      std::vector<FpInsert> expected;
      for (const FpInsertItem& item : items) {
        expected.push_back(one.Insert(item.fp, item.pred_fp, item.action,
                                      item.depth, item.order_key));
      }
      std::vector<FpInsert> got(items.size());
      batched.InsertBatch(items, got);
      for (size_t i = 0; i < items.size(); ++i) {
        ASSERT_EQ(got[i].inserted, expected[i].inserted)
            << "round " << round << " item " << i << " fp " << items[i].fp;
        revisits += !expected[i].inserted;
        if (evicted.count(items[i].fp) != 0) {
          ASSERT_FALSE(expected[i].inserted) << "fp " << items[i].fp;
          ++disk_hits;
        }
      }
      ASSERT_EQ(batched.size(), one.size());

      if (mode == Mode::kSpill && round % 5 == 4) {
        ASSERT_TRUE(one.EvictAll().ok());
        ASSERT_TRUE(batched.EvictAll().ok());
        for (uint64_t fp : pool) {
          if (one.GetEdge(fp).has_value()) evicted.insert(fp);
        }
      }
    }
    EXPECT_GT(one.size(), 0u);
    for (uint64_t fp : pool) {
      const std::optional<FingerprintSet::Edge> a = one.GetEdge(fp);
      const std::optional<FingerprintSet::Edge> b = batched.GetEdge(fp);
      ASSERT_EQ(b.has_value(), a.has_value()) << "fp " << fp;
      if (!a.has_value()) continue;
      EXPECT_EQ(b->pred_fp, a->pred_fp) << "fp " << fp;
      EXPECT_EQ(b->order_key, a->order_key) << "fp " << fp;
      EXPECT_EQ(b->action, a->action) << "fp " << fp;
      EXPECT_EQ(b->depth, a->depth) << "fp " << fp;
    }
    // Every mode reached the results it can produce.
    EXPECT_GT(revisits, 0u);
    if (mode == Mode::kSpill) {
      EXPECT_GT(disk_hits, 0u);
    }
  }
}

// Concurrent batches: four threads flush overlapping batches, each with
// in-batch duplicates, at one depth. Exactly one insert wins each
// fingerprint, and every record ends with the edge of its smallest order
// key whichever thread flushed it. Run under TSan in CI to certify the
// per-shard locking of InsertBatch.
TEST(FpsetTest, InsertBatchHammer) {
  FingerprintSet::Options options;
  options.num_shards = 8;
  FingerprintSet set(options);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 8'000;
  constexpr uint64_t kStride = kKeys / 2;  // Neighbors share half a range.
  constexpr size_t kBatch = 256;
  // Thread t inserts key k twice, with order keys order_key(k, t, 0 / 1).
  auto order_key = [](uint64_t k, int t, int copy) {
    return common::Mix64((k << 3) | (static_cast<uint64_t>(t) << 1) |
                         static_cast<uint64_t>(copy));
  };
  std::atomic<uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<FpInsertItem> items;
      std::vector<FpInsert> out;
      uint64_t local_wins = 0;
      const auto flush = [&] {
        out.resize(items.size());
        set.InsertBatch(items, out);
        for (const FpInsert& r : out) {
          if (r.inserted) ++local_wins;
        }
        items.clear();
      };
      const uint64_t first = static_cast<uint64_t>(t) * kStride;
      for (uint64_t k = first; k < first + kKeys; ++k) {
        for (int copy = 0; copy < 2; ++copy) {
          FpInsertItem item;
          item.fp = common::Mix64(k + 1);
          item.order_key = order_key(k, t, copy);
          item.pred_fp = static_cast<uint64_t>(t * 2 + copy);
          item.action = static_cast<uint16_t>(t * 2 + copy);
          item.depth = 1;
          items.push_back(item);
        }
        if (items.size() >= kBatch) flush();
      }
      flush();
      wins.fetch_add(local_wins, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();

  const uint64_t distinct = (kThreads - 1) * kStride + kKeys;
  EXPECT_EQ(set.size(), distinct);
  EXPECT_EQ(wins.load(), distinct) << "exactly one insert wins each key";
  for (uint64_t k = 0; k < distinct; ++k) {
    // The min-merged edge: the smallest order key among every insert.
    uint64_t best_key = UINT64_MAX;
    uint64_t best_pred = 0;
    for (int t = 0; t < kThreads; ++t) {
      const uint64_t first = static_cast<uint64_t>(t) * kStride;
      if (k < first || k >= first + kKeys) continue;
      for (int copy = 0; copy < 2; ++copy) {
        if (order_key(k, t, copy) < best_key) {
          best_key = order_key(k, t, copy);
          best_pred = static_cast<uint64_t>(t * 2 + copy);
        }
      }
    }
    const std::optional<FingerprintSet::Edge> edge =
        set.GetEdge(common::Mix64(k + 1));
    ASSERT_TRUE(edge.has_value()) << "key " << k;
    EXPECT_EQ(edge->order_key, best_key) << "key " << k;
    EXPECT_EQ(edge->pred_fp, best_pred) << "key " << k;
    EXPECT_EQ(edge->action, static_cast<uint16_t>(best_pred)) << "key " << k;
    EXPECT_EQ(edge->depth, 1) << "key " << k;
  }
}

}  // namespace
}  // namespace xmodel::tlax
