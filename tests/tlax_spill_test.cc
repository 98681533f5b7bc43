// Unit tests for the out-of-core machinery: the SpillTier run format
// (seal, probe, compaction, corruption detection), FingerprintSet
// eviction exactness under a memory budget, and the FrontierSpool FIFO
// segment files. Includes a concurrent evict-vs-insert-vs-GetEdge hammer
// that the TSan CI job runs to certify that FingerprintSet's eviction
// lock alone guards the tier's run list.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fileio.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/varint.h"
#include "tlax/checkpoint.h"
#include "tlax/fpset.h"
#include "tlax/fpset_spill.h"
#include "tlax/frontier_spill.h"
#include "tlax/state.h"
#include "tlax/value.h"

namespace xmodel::tlax {
namespace {

using internal::LevelEntry;

std::string TestDir(const char* name) {
  std::string dir = common::StrCat(::testing::TempDir(), "/spill_", name);
  // Start from a clean slate: stale files from a previous run would make
  // orphan/adopt assertions flaky.
  std::vector<std::string> files;
  if (common::ListDirFiles(dir, &files).ok()) {
    for (const std::string& f : files) {
      common::RemoveFileIfExists(dir + "/" + f);
    }
  }
  return dir;
}

SpillTier::Entry MakeEntry(uint64_t fp) {
  SpillTier::EdgeData edge;
  edge.pred_fp = fp * 31;
  edge.order_key = fp ^ 0xabcdef;
  edge.depth = static_cast<int64_t>(fp % 97);
  edge.action = static_cast<uint16_t>(fp % 7);
  return {fp, edge};
}

std::vector<SpillTier::Entry> MakeEntries(uint64_t start, uint64_t count,
                                          uint64_t stride) {
  std::vector<SpillTier::Entry> entries;
  for (uint64_t i = 0; i < count; ++i) {
    entries.push_back(MakeEntry(start + i * stride));
  }
  return entries;
}

// Seals `entries` as one slice, inline.
common::Status Seal(SpillTier& tier,
                    const std::vector<SpillTier::Entry>& entries) {
  return tier.SealRun({std::span<const SpillTier::Entry>(entries)}, nullptr);
}

// Several full blocks and a partial last one.
constexpr uint64_t kMultiBlock = 3 * SpillTier::kBlockEntries + 17;

TEST(SpillTierTest, SealedRunRoundTripsEveryEntry) {
  SpillTier::Options options;
  options.dir = TestDir("roundtrip");
  SpillTier tier(options);

  const std::vector<SpillTier::Entry> entries =
      MakeEntries(10, kMultiBlock, 3);
  ASSERT_TRUE(Seal(tier, entries).ok());

  for (const SpillTier::Entry& e : entries) {
    SpillTier::EdgeData edge;
    ASSERT_TRUE(tier.FindOnDisk(e.first, &edge)) << "fp " << e.first;
    EXPECT_EQ(edge.pred_fp, e.second.pred_fp);
    EXPECT_EQ(edge.order_key, e.second.order_key);
    EXPECT_EQ(edge.depth, e.second.depth);
    EXPECT_EQ(edge.action, e.second.action);
  }
  // Absent fingerprints (between and beyond the stored ones) miss cleanly.
  SpillTier::EdgeData edge;
  EXPECT_FALSE(tier.FindOnDisk(11, &edge));
  EXPECT_FALSE(tier.FindOnDisk(0, &edge));
  EXPECT_FALSE(tier.FindOnDisk(1'000'000, &edge));
  EXPECT_TRUE(tier.status().ok());

  SpillTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.generations, 1u);
  EXPECT_EQ(stats.spilled_records, kMultiBlock);
  EXPECT_GT(stats.bytes_written, 0u);
}

TEST(SpillTierTest, CompactionMergesRunsAndKeepsEveryRecord) {
  SpillTier::Options options;
  options.dir = TestDir("compact");
  SpillTier tier(options);

  // kCompactMinRuns disjoint runs with interleaved fingerprint ranges.
  constexpr uint64_t kRuns = SpillTier::kCompactMinRuns;
  constexpr uint64_t kPerRun = 2 * SpillTier::kBlockEntries + 17;
  for (uint64_t r = 0; r < kRuns; ++r) {
    ASSERT_TRUE(Seal(tier, MakeEntries(100 + r, kPerRun, kRuns)).ok());
    if (r + 1 < kRuns) {
      ASSERT_TRUE(tier.CompactIfNeeded().ok());
      EXPECT_EQ(tier.stats().compactions, 0u) << "below the threshold";
    }
  }
  ASSERT_TRUE(tier.CompactIfNeeded().ok());

  SpillTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.spilled_records, kRuns * kPerRun);
  for (uint64_t r = 0; r < kRuns; ++r) {
    for (const SpillTier::Entry& e : MakeEntries(100 + r, kPerRun, kRuns)) {
      SpillTier::EdgeData edge;
      ASSERT_TRUE(tier.FindOnDisk(e.first, &edge)) << "fp " << e.first;
      EXPECT_EQ(edge.pred_fp, e.second.pred_fp);
    }
  }
  // The input files were replaced by the single merged one.
  std::vector<std::string> files;
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  size_t run_files = 0;
  for (const std::string& f : files) {
    if (f.rfind("run-", 0) == 0) ++run_files;
  }
  EXPECT_EQ(run_files, 1u);
}

TEST(SpillTierTest, DeferredDeletesSurviveUntilPurge) {
  SpillTier::Options options;
  options.dir = TestDir("defer");
  options.durable = true;
  SpillTier tier(options);
  constexpr uint64_t kRuns = SpillTier::kCompactMinRuns;
  for (uint64_t r = 0; r < kRuns; ++r) {
    ASSERT_TRUE(Seal(tier, MakeEntries(10 + r, 20, kRuns)).ok());
  }
  ASSERT_TRUE(tier.CompactIfNeeded().ok());

  std::vector<std::string> files;
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  EXPECT_EQ(files.size(), kRuns + 1) << "inputs retired but not yet deleted";
  tier.PurgeRetired();
  files.clear();
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  EXPECT_EQ(files.size(), 1u);
}

TEST(SpillTierTest, AdoptRunsRoundTripsAndDropsOrphans) {
  SpillTier::Options options;
  options.dir = TestDir("adopt");
  std::vector<std::string> manifest;
  {
    SpillTier tier(options);
    ASSERT_TRUE(Seal(tier, MakeEntries(5, 40, 5)).ok());
    ASSERT_TRUE(Seal(tier, MakeEntries(7, 40, 5)).ok());
    for (const SpillTier::RunInfo& info : tier.run_infos()) {
      manifest.push_back(info.file);
    }
  }
  ASSERT_EQ(manifest.size(), 2u);
  // An extra sealed-but-unpublished run becomes an orphan on the next
  // resume: a resumed tier adopts the manifest (so its generation
  // counter sits past the adopted names), seals a fresh run, then dies
  // before any manifest names it.
  {
    SpillTier tier(options);
    ASSERT_TRUE(tier.AdoptRuns(manifest).ok());
    ASSERT_TRUE(Seal(tier, MakeEntries(1'000'000, 5, 1)).ok());
  }

  SpillTier resumed(options);
  ASSERT_TRUE(resumed.AdoptRuns(manifest).ok());
  EXPECT_EQ(resumed.stats().spilled_records, 80u);
  CheckpointManifest adopted;
  for (const std::string& file : manifest) {
    adopted.runs.push_back(SpillTier::RunInfo{file, 0, 0});
  }
  ASSERT_TRUE(DropCheckpointOrphans(options.dir, adopted).ok());
  std::vector<std::string> files;
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  EXPECT_EQ(files.size(), 2u);
  for (const SpillTier::Entry& e : MakeEntries(5, 40, 5)) {
    SpillTier::EdgeData edge;
    EXPECT_TRUE(resumed.FindOnDisk(e.first, &edge));
  }
  SpillTier::EdgeData edge;
  EXPECT_FALSE(resumed.FindOnDisk(1'000'000, &edge))
      << "orphaned run must not be probed";
  // New runs sealed after adoption must not collide with adopted names.
  ASSERT_TRUE(Seal(resumed, MakeEntries(2'000'000, 5, 1)).ok());
  std::vector<SpillTier::RunInfo> infos = resumed.run_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_NE(infos[2].file, infos[0].file);
  EXPECT_NE(infos[2].file, infos[1].file);
}

TEST(SpillTierTest, CorruptRunIsARefusedAdoption) {
  SpillTier::Options options;
  options.dir = TestDir("corrupt");
  std::string file;
  {
    SpillTier tier(options);
    ASSERT_TRUE(Seal(tier, MakeEntries(3, 64, 3)).ok());
    file = tier.run_infos()[0].file;
  }
  const std::string path = options.dir + "/" + file;
  std::string contents;
  ASSERT_TRUE(common::ReadFileToString(path, &contents).ok());

  // Truncation.
  ASSERT_TRUE(common::WriteFileAtomic(
                  path, std::string_view(contents).substr(
                            0, contents.size() / 2))
                  .ok());
  {
    SpillTier tier(options);
    common::Status status = tier.AdoptRuns({file});
    EXPECT_EQ(status.code(), common::StatusCode::kCorruption)
        << status.ToString();
  }
  // Zero-length and shorter-than-a-header files: corruption, not a
  // failed map.
  for (size_t len : {size_t{0}, size_t{10}}) {
    ASSERT_TRUE(common::WriteFileAtomic(
                    path, std::string_view(contents).substr(0, len))
                    .ok());
    SpillTier tier(options);
    common::Status status = tier.AdoptRuns({file});
    EXPECT_EQ(status.code(), common::StatusCode::kCorruption)
        << "length " << len << ": " << status.ToString();
  }
  // A header count no file could hold (2^62 entries): refused before it
  // sizes the Bloom filter, so no huge allocation and no crash.
  std::string forged = contents;
  std::string huge_count;
  common::PutFixed64(uint64_t{1} << 62, &huge_count);
  forged.replace(8, huge_count.size(), huge_count);
  ASSERT_TRUE(common::WriteFileAtomic(path, forged).ok());
  {
    SpillTier tier(options);
    common::Status status = tier.AdoptRuns({file});
    EXPECT_EQ(status.code(), common::StatusCode::kCorruption)
        << status.ToString();
  }
  // Bit flip in the middle (an entry payload), full length.
  std::string garbled = contents;
  garbled[garbled.size() / 2] ^= 0x40;
  ASSERT_TRUE(common::WriteFileAtomic(path, garbled).ok());
  {
    SpillTier tier(options);
    common::Status status = tier.AdoptRuns({file});
    EXPECT_FALSE(status.ok());
  }
  // Pristine contents adopt fine again.
  ASSERT_TRUE(common::WriteFileAtomic(path, contents).ok());
  {
    SpillTier tier(options);
    EXPECT_TRUE(tier.AdoptRuns({file}).ok());
  }
}

TEST(SpillTierTest, FindBatchMatchesFindOnDisk) {
  SpillTier::Options options;
  options.dir = TestDir("findbatch");
  SpillTier tier(options);
  // Three disjoint runs with interleaved ranges, several blocks each.
  ASSERT_TRUE(Seal(tier, MakeEntries(100, kMultiBlock, 6)).ok());
  ASSERT_TRUE(Seal(tier, MakeEntries(101, kMultiBlock, 6)).ok());
  ASSERT_TRUE(Seal(tier, MakeEntries(103, kMultiBlock, 6)).ok());

  // A sorted batch mixing members of every run with absent keys below,
  // between, and above the stored ranges.
  std::vector<uint64_t> batch;
  for (uint64_t fp = 0; fp < 200 + 6 * kMultiBlock; ++fp) batch.push_back(fp);
  std::vector<uint8_t> found;
  tier.FindBatch(batch, &found);
  ASSERT_EQ(found.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SpillTier::EdgeData edge;
    EXPECT_EQ(found[i] != 0, tier.FindOnDisk(batch[i], &edge))
        << "fp " << batch[i];
  }
  EXPECT_TRUE(tier.status().ok());
}

TEST(SpillTierTest, GarbledMappedBlockFailsEdgeDecode) {
  SpillTier::Options options;
  options.dir = TestDir("block_sum");
  SpillTier tier(options);
  const std::vector<SpillTier::Entry> entries =
      MakeEntries(10, kMultiBlock, 3);
  ASSERT_TRUE(Seal(tier, entries).ok());
  SpillTier::EdgeData edge;
  ASSERT_TRUE(tier.FindOnDisk(entries[0].first, &edge));
  ASSERT_TRUE(tier.status().ok());

  // Garble one byte of the first block's edge sidecar IN PLACE (the live
  // tier maps the file, so a rename-replace would keep the old bytes
  // visible). Every edge lookup decodes the mapped block afresh, so the
  // next one must fail its checksum rather than hand back a silently
  // wrong edge.
  const std::string path = options.dir + "/" + tier.run_infos()[0].file;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // 16 file header + 8 payload length + 8 count + 8 per fingerprint of a
  // full block puts the cursor on the first sidecar byte.
  ASSERT_EQ(std::fseek(f, 16 + 8 + 8 + 8 * SpillTier::kBlockEntries, SEEK_SET),
            0);
  const int orig = std::fgetc(f);
  ASSERT_NE(orig, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(orig ^ 0x5a, f);
  ASSERT_EQ(std::fclose(f), 0);

  EXPECT_FALSE(tier.FindOnDisk(entries[0].first, &edge));
  EXPECT_EQ(tier.status().code(), common::StatusCode::kCorruption)
      << tier.status().ToString();
}

// Probes binary-search a run, so SealRun must refuse input whose
// fingerprints are out of order or repeated rather than write a run
// whose lookups would silently miss.
TEST(SpillTierTest, SealRunRejectsUnsortedOrDuplicateInput) {
  SpillTier::Options options;
  options.dir = TestDir("unsorted");
  SpillTier tier(options);

  std::vector<SpillTier::Entry> unsorted = MakeEntries(10, 20, 1);
  std::swap(unsorted[5], unsorted[6]);
  common::Status status = Seal(tier, unsorted);
  EXPECT_EQ(status.code(), common::StatusCode::kInternal) << status.ToString();

  std::vector<SpillTier::Entry> duplicate = MakeEntries(10, 20, 1);
  duplicate[8] = duplicate[7];
  status = Seal(tier, duplicate);
  EXPECT_EQ(status.code(), common::StatusCode::kInternal) << status.ToString();

  EXPECT_EQ(tier.stats().generations, 0u) << "nothing was sealed";
  EXPECT_EQ(tier.stats().runs, 0u);
  SpillTier::EdgeData edge;
  EXPECT_FALSE(tier.FindOnDisk(10, &edge));
  EXPECT_TRUE(tier.status().ok()) << "a caller bug is not a sticky IO error";
  ASSERT_TRUE(Seal(tier, MakeEntries(10, 20, 1)).ok());
  EXPECT_TRUE(tier.FindOnDisk(15, &edge));
}

// The run file is the same bytes whether its blocks are encoded by one
// task or split across pool workers, and whether the input arrives as one
// vector or as slices (EvictAll passes one per shard) that cut blocks.
TEST(SpillTierTest, SealRunBytesMatchAcrossTaskCounts) {
  constexpr size_t kBlock = SpillTier::kBlockEntries;
  const std::vector<SpillTier::Entry> entries =
      MakeEntries(5, 10 * kBlock + 17, 7);
  const auto sealed_bytes = [&entries](const char* name, size_t workers,
                                       std::vector<size_t> cuts) {
    SpillTier::Options options;
    options.dir = TestDir(name);
    SpillTier tier(options);
    cuts.push_back(entries.size());
    std::vector<std::span<const SpillTier::Entry>> slices;
    size_t begin = 0;
    for (size_t end : cuts) {
      slices.emplace_back(entries.data() + begin, end - begin);
      begin = end;
    }
    common::WorkerPool pool(static_cast<int>(workers));
    EXPECT_TRUE(tier.SealRun(slices, workers == 1 ? nullptr : &pool).ok());
    const std::vector<SpillTier::RunInfo> runs = tier.run_infos();
    EXPECT_EQ(runs.size(), 1u);
    std::string bytes;
    EXPECT_TRUE(
        common::ReadFileToString(options.dir + "/" + runs[0].file, &bytes)
            .ok());
    SpillTier::EdgeData edge;
    EXPECT_TRUE(tier.FindOnDisk(entries[1234].first, &edge));
    EXPECT_EQ(edge.order_key, entries[1234].second.order_key);
    return bytes;
  };
  const std::string serial = sealed_bytes("seal_serial", 1, {});
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(sealed_bytes("seal_four", 4, {}), serial);
  EXPECT_EQ(sealed_bytes("seal_three_sliced", 3,
                         {0, 1, 100, 100, entries.size() - 1}),
            serial);
  EXPECT_EQ(sealed_bytes("seal_one_sliced", 1, {2 * kBlock, 4 * kBlock - 24}),
            serial);
}

// A compaction writes the same file as one SealRun of the sorted union
// of its inputs, and its stats are final when CompactIfNeeded returns.
TEST(SpillTierTest, CompactedRunBytesMatchOneSeal) {
  constexpr uint64_t kRuns = SpillTier::kCompactMinRuns;
  const auto run_bytes = [](const SpillTier& tier, const std::string& dir) {
    const std::vector<SpillTier::RunInfo> runs = tier.run_infos();
    EXPECT_EQ(runs.size(), 1u);
    std::string bytes;
    if (runs.size() != 1) return bytes;
    EXPECT_TRUE(
        common::ReadFileToString(dir + "/" + runs[0].file, &bytes).ok());
    return bytes;
  };
  SpillTier::Options options;
  options.dir = TestDir("compact_bytes");
  SpillTier tier(options);
  // Run r holds 5 + r, 5 + r + kRuns, ...: disjoint and interleaved.
  std::vector<SpillTier::Entry> all;
  for (uint64_t r = 0; r < kRuns; ++r) {
    const std::vector<SpillTier::Entry> run =
        MakeEntries(5 + r, 2 * SpillTier::kBlockEntries + 17, kRuns);
    ASSERT_TRUE(Seal(tier, run).ok());
    all.insert(all.end(), run.begin(), run.end());
  }
  ASSERT_TRUE(tier.CompactIfNeeded().ok());
  const SpillTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.generations, kRuns);
  EXPECT_EQ(stats.spilled_records, all.size());
  const std::string merged = run_bytes(tier, options.dir);
  ASSERT_FALSE(merged.empty());

  std::sort(all.begin(), all.end(),
            [](const SpillTier::Entry& a, const SpillTier::Entry& b) {
              return a.first < b.first;
            });
  SpillTier::Options fresh_options = options;
  fresh_options.dir = TestDir("compact_bytes_one_seal");
  SpillTier fresh(fresh_options);
  ASSERT_TRUE(Seal(fresh, all).ok());
  EXPECT_EQ(run_bytes(fresh, fresh_options.dir), merged);
}

// Records resident in the hot table: the distinct count less the ones
// sealed to disk.
size_t HotRecords(const FingerprintSet& set) {
  return set.size() - set.spill_stats().spilled_records;
}

TEST(FpsetSpillTest, EvictionKeepsMembershipAndEdgesExact) {
  FingerprintSet::Options options;
  options.spill_dir = TestDir("fpset_evict");
  FingerprintSet set(options);
  ASSERT_TRUE(set.has_spill());

  for (uint64_t fp = 1; fp <= 500; ++fp) {
    ASSERT_TRUE(set.Insert(fp, /*pred_fp=*/fp / 2, /*action=*/2,
                           /*depth=*/static_cast<int64_t>(fp % 13),
                           /*order_key=*/fp)
                    .inserted);
  }
  EXPECT_EQ(set.size(), 500u);
  EXPECT_EQ(HotRecords(set), 500u);
  ASSERT_TRUE(set.EvictAll().ok());
  EXPECT_EQ(HotRecords(set), 0u);
  EXPECT_EQ(set.size(), 500u) << "distinct count is unchanged by eviction";

  // Every evicted fingerprint is a revisit with its original depth…
  for (uint64_t fp = 1; fp <= 500; ++fp) {
    EXPECT_FALSE(set.Insert(fp, 999, 5, 7, 999'999).inserted)
        << "fp " << fp;
    auto edge = set.GetEdge(fp);
    ASSERT_TRUE(edge.has_value()) << "fp " << fp;
    EXPECT_EQ(edge->depth, static_cast<int64_t>(fp % 13));
  }
  EXPECT_EQ(set.size(), 500u);
  EXPECT_EQ(HotRecords(set), 0u) << "a disk hit creates no hot record";
  // …its discovery edge still resolves (trace rebuild path)…
  auto edge = set.GetEdge(123);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->pred_fp, 61u);
  EXPECT_EQ(edge->action, 2);
  EXPECT_EQ(edge->order_key, 123u);
  // …and genuinely new fingerprints still insert into the hot table.
  EXPECT_TRUE(set.Insert(9'999, 1, 1, 3, 1).inserted);
  EXPECT_EQ(set.size(), 501u);
  EXPECT_EQ(HotRecords(set), 1u);
  EXPECT_TRUE(set.spill_status().ok());
}

TEST(FpsetSpillTest, DeferredInsertsResolveAgainstDiskInOneBatch) {
  FingerprintSet::Options options;
  options.spill_dir = TestDir("fpset_defer");
  FingerprintSet set(options);
  for (uint64_t fp = 1; fp <= 100; ++fp) {
    ASSERT_TRUE(
        set.Insert(fp, fp / 2, 1, static_cast<int64_t>(fp % 5), fp)
            .inserted);
  }
  ASSERT_TRUE(set.EvictAll().ok());
  ASSERT_EQ(set.size(), 100u);

  // One mixed batch: 50 is on disk, 1000 and 1001 are new, and 1000's
  // second item is a revisit of the record its first item creates.
  const std::vector<FpInsertItem> items = {
      {.fp = 50, .pred_fp = 7, .order_key = 50, .depth = 9, .action = 3},
      {.fp = 1'000, .pred_fp = 8, .order_key = 60, .depth = 4, .action = 2},
      {.fp = 1'000, .pred_fp = 9, .order_key = 59, .depth = 4, .action = 2},
      {.fp = 1'001, .pred_fp = 8, .order_key = 62, .depth = 4, .action = 2},
  };
  std::vector<FpInsert> out(items.size());
  set.InsertBatch(items, out);
  EXPECT_FALSE(out[0].inserted) << "fp 50 was evicted: the disk copy wins";
  EXPECT_TRUE(out[1].inserted);
  EXPECT_FALSE(out[2].inserted) << "an in-batch duplicate is a revisit";
  EXPECT_TRUE(out[3].inserted);
  EXPECT_EQ(set.size(), 102u) << "two genuinely new fingerprints landed";
  EXPECT_EQ(HotRecords(set), 2u) << "the disk hit created no hot record";
  // The disk edge of 50 is intact; the new ones resolve from the hot
  // table, 1000 with its duplicate's smaller same-depth key.
  auto edge = set.GetEdge(50);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->pred_fp, 25u);
  EXPECT_EQ(edge->order_key, 50u);
  edge = set.GetEdge(1'000);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->pred_fp, 9u);
  EXPECT_EQ(edge->order_key, 59u);
  // Re-inserting any of them is a plain revisit now.
  EXPECT_FALSE(set.Insert(50, 0, 0, 0, 0).inserted);
  EXPECT_FALSE(set.Insert(1'000, 0, 0, 0, 0).inserted);
  EXPECT_EQ(set.size(), 102u);
  EXPECT_TRUE(set.spill_status().ok());
}

TEST(FpsetSpillTest, BudgetTriggersGenerationsAndCompaction) {
  FingerprintSet::Options options;
  options.spill_dir = TestDir("fpset_budget");
  // One shard of 32-byte slots holds 112 records in 4 KB (128 slots at
  // 7/8 load); the 113th doubles it past a 4 KB budget and forces an
  // eviction.
  options.num_shards = 1;
  options.memory_budget_bytes = 4 * 1024;
  FingerprintSet set(options);

  for (uint64_t fp = 1; fp <= 2'000; ++fp) {
    ASSERT_TRUE(set.Insert(fp, fp / 2, 1, 0, fp).inserted);
    ASSERT_TRUE(set.EvictIfOverBudget().ok());
  }
  SpillTier::Stats stats = set.spill_stats();
  EXPECT_GE(stats.generations, 4u) << "the tight budget must force "
                                      "multiple spill generations";
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(set.size(), 2'000u);
  EXPECT_LE(set.table_bytes(), options.memory_budget_bytes);
  for (uint64_t fp = 1; fp <= 2'000; ++fp) {
    EXPECT_FALSE(set.Insert(fp, 0, 0, 0, 0).inserted);
  }
  EXPECT_EQ(set.size(), 2'000u);
}

// Inserters race each other, a thread that evicts in a loop and a thread
// that looks up edges: threads t and t + 2 insert the same fingerprints,
// and exactly one insert must win each, however the evictions
// interleave. The first round inserts one at a time; the second in
// batches of 64, so that each batch's hold on the eviction lock races
// EvictAll. The edge thread calls GetEdge on every fingerprint once its
// insert has returned, while the evictor seals and compacts under it: the
// eviction lock is the only lock on the tier's run list.
TEST(FpsetSpillTest, ConcurrentInsertsDuringEvictionsStayExact) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 2'000;
  constexpr uint64_t kDistinct = kThreads * kPerThread / 2;
  // Every kStride inserts, an inserter flushes and waits until k = i /
  // kStride runs are sealed. Its latest stride was first inserted after
  // run k - 1 was sealed, so run k exists or is next: the waits force 15
  // seals, and with them two compactions.
  constexpr uint64_t kStride = kPerThread / 16;
  const auto fp_of = [](int t, uint64_t i) {
    return 1 + i * 2 + static_cast<uint64_t>(t % 2);
  };
  for (const size_t batch : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    FingerprintSet::Options options;
    options.spill_dir = TestDir("fpset_hammer");
    options.num_shards = 8;
    FingerprintSet set(options);
    std::atomic<uint64_t> inserted{0};
    std::atomic<uint64_t> sealed{0};  // Seals so far, after each EvictAll.
    std::atomic<bool> stop{false};
    // returned[t]: how many of thread t's inserts have returned.
    std::vector<std::atomic<uint64_t>> returned(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<FpInsertItem> items;
        std::vector<FpInsert> out;
        const auto flush = [&](uint64_t done) {
          out.resize(items.size());
          set.InsertBatch(items, out);
          for (const FpInsert& r : out) {
            if (r.inserted) inserted.fetch_add(1, std::memory_order_relaxed);
          }
          items.clear();
          returned[t].store(done, std::memory_order_release);
        };
        for (uint64_t i = 0; i < kPerThread; ++i) {
          if (i > 0 && i % kStride == 0) {
            flush(i);
            while (sealed.load(std::memory_order_acquire) < i / kStride) {
              std::this_thread::yield();
            }
          }
          const uint64_t fp = fp_of(t, i);
          items.push_back(FpInsertItem{.fp = fp, .pred_fp = fp,
                                       .order_key = fp, .action = 1});
          if (items.size() == batch) flush(i + 1);
        }
        flush(kPerThread);
      });
    }
    // One GetEdge per returned insert, so the edge thread takes the
    // eviction lock no more often than the inserters and cannot starve
    // EvictAll; it waits for progress without holding it.
    std::thread edges([&] {
      std::vector<uint64_t> probed(kThreads, 0);
      for (uint64_t left = kThreads * kPerThread; left > 0;) {
        for (int t = 0; t < kThreads; ++t) {
          const uint64_t upto = returned[t].load(std::memory_order_acquire);
          for (; probed[t] < upto; ++probed[t], --left) {
            const uint64_t fp = fp_of(t, probed[t]);
            EXPECT_TRUE(set.GetEdge(fp).has_value()) << "fp " << fp;
          }
        }
        std::this_thread::yield();
      }
    });
    std::thread evictor([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const common::Status status = set.EvictAll();
        EXPECT_TRUE(status.ok()) << status.ToString();
        // A failed eviction releases the waiting inserters.
        sealed.store(status.ok() ? set.spill_stats().generations : UINT64_MAX,
                     std::memory_order_release);
        if (!status.ok()) return;
      }
    });
    for (std::thread& t : threads) t.join();
    edges.join();
    stop.store(true, std::memory_order_relaxed);
    evictor.join();

    EXPECT_EQ(inserted.load(), kDistinct);
    EXPECT_EQ(set.size(), kDistinct);
    EXPECT_TRUE(set.spill_status().ok());
    // And every fingerprint is still findable for trace rebuild.
    ASSERT_TRUE(set.EvictAll().ok());
    EXPECT_GE(set.spill_stats().compactions, 2u);
    for (uint64_t fp = 1; fp <= kDistinct; ++fp) {
      EXPECT_TRUE(set.GetEdge(fp).has_value()) << "fp " << fp;
    }
  }
}

State MakeState(int64_t x, int64_t y) {
  return State({Value::Int(x), Value::Int(y)});
}

LevelEntry MakeLevelEntry(int64_t i) {
  LevelEntry e;
  e.state = MakeState(i, i * 3);
  e.fp = Fingerprint(e.state);
  e.depth = i % 11;
  e.key = static_cast<uint64_t>(i) << 8;
  return e;
}

// Spools every entry of `entries`, inline.
common::Status AppendAll(internal::FrontierSpool& spool,
                         std::vector<LevelEntry>& entries) {
  std::vector<LevelEntry*> pointers;
  for (LevelEntry& e : entries) pointers.push_back(&e);
  return spool.Append(pointers, nullptr);
}

TEST(FrontierSpoolTest, FifoRoundTripAcrossSegmentsAndTail) {
  internal::FrontierSpool::Options options;
  options.dir = TestDir("spool");
  options.segment_entries = 16;
  internal::FrontierSpool spool(options);

  std::vector<LevelEntry> in;
  for (int64_t i = 0; i < 50; ++i) in.push_back(MakeLevelEntry(i));
  ASSERT_TRUE(AppendAll(spool, in).ok());
  EXPECT_EQ(spool.size(), 50u);
  EXPECT_EQ(spool.segments_written(), 3u) << "16+16+16 sealed, 2 in tail";

  int64_t next = 0;
  std::vector<LevelEntry> batch;
  while (true) {
    ASSERT_TRUE(spool.PopBatch(&batch).ok());
    if (batch.empty()) break;
    for (const LevelEntry& e : batch) {
      LevelEntry want = MakeLevelEntry(next);
      EXPECT_EQ(e.fp, want.fp) << "entry " << next;
      EXPECT_EQ(e.depth, want.depth);
      EXPECT_EQ(e.key, want.key);
      EXPECT_EQ(Fingerprint(e.state), want.fp)
          << "state round-trips to the same fingerprint";
      ++next;
    }
  }
  EXPECT_EQ(next, 50);
  EXPECT_TRUE(spool.empty());
  // Consumed segment files are deleted as they are popped.
  std::vector<std::string> files;
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  EXPECT_TRUE(files.empty());
}

// Segment files are the same bytes, under the same names, whether each
// segment is encoded inline or by a pool task, and however the appends
// split the stream.
TEST(FrontierSpoolTest, SegmentBytesMatchAcrossTaskCounts) {
  const auto segment_files = [](const char* name, int workers,
                                std::vector<size_t> cuts) {
    internal::FrontierSpool::Options options;
    options.dir = TestDir(name);
    options.segment_entries = 16;
    internal::FrontierSpool spool(options);
    std::vector<LevelEntry> in;
    for (int64_t i = 0; i < 100; ++i) in.push_back(MakeLevelEntry(i));
    common::WorkerPool pool(workers);
    if (workers == 1) {
      EXPECT_TRUE(AppendAll(spool, in).ok());
    } else {
      std::vector<LevelEntry*> pointers;
      for (LevelEntry& e : in) pointers.push_back(&e);
      cuts.push_back(pointers.size());
      size_t begin = 0;
      for (size_t end : cuts) {
        EXPECT_TRUE(spool
                        .Append(std::span<LevelEntry* const>(pointers).subspan(
                                    begin, end - begin),
                                &pool)
                        .ok());
        begin = end;
      }
    }
    EXPECT_TRUE(spool.Seal().ok());
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string& file : spool.live_segment_files()) {
      std::string bytes;
      EXPECT_TRUE(
          common::ReadFileToString(options.dir + "/" + file, &bytes).ok());
      files.emplace_back(file, std::move(bytes));
    }
    return files;
  };
  const auto serial = segment_files("spool_serial", 1, {});
  ASSERT_EQ(serial.size(), 7u) << "6 x 16 sealed, then the 4-entry tail";
  EXPECT_EQ(segment_files("spool_four", 4, {}), serial);
  EXPECT_EQ(segment_files("spool_four_split", 4, {5, 40, 40, 77}), serial);
}

TEST(FrontierSpoolTest, SealAdoptResumeAndCorruption) {
  internal::FrontierSpool::Options options;
  options.dir = TestDir("spool_resume");
  options.segment_entries = 8;
  options.durable = true;
  std::vector<std::string> manifest;
  {
    internal::FrontierSpool spool(options);
    std::vector<LevelEntry> in;
    for (int64_t i = 0; i < 20; ++i) in.push_back(MakeLevelEntry(i));
    ASSERT_TRUE(AppendAll(spool, in).ok());
    ASSERT_TRUE(spool.Seal().ok());
    manifest = spool.live_segment_files();
  }
  ASSERT_EQ(manifest.size(), 3u) << "8+8+4 after sealing the tail";

  internal::FrontierSpool resumed(options);
  uint64_t entries = 0;
  ASSERT_TRUE(resumed.AdoptSegments(manifest, &entries).ok());
  EXPECT_EQ(entries, 20u);
  EXPECT_EQ(resumed.size(), 20u);
  int64_t next = 0;
  std::vector<LevelEntry> batch;
  while (true) {
    ASSERT_TRUE(resumed.PopBatch(&batch).ok());
    if (batch.empty()) break;
    for (const LevelEntry& e : batch) {
      EXPECT_EQ(e.fp, MakeLevelEntry(next).fp);
      ++next;
    }
  }
  EXPECT_EQ(next, 20);
  // durable: consumed files persist until the purge.
  std::vector<std::string> files;
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  EXPECT_EQ(files.size(), 3u);
  resumed.PurgeConsumed();
  files.clear();
  ASSERT_TRUE(common::ListDirFiles(options.dir, &files).ok());
  EXPECT_TRUE(files.empty());

  // A garbled segment refuses adoption with a clean corruption error.
  {
    internal::FrontierSpool writer(options);
    std::vector<LevelEntry> in;
    for (int64_t i = 0; i < 8; ++i) in.push_back(MakeLevelEntry(i));
    ASSERT_TRUE(AppendAll(writer, in).ok());
    ASSERT_TRUE(writer.Seal().ok());
    manifest = writer.live_segment_files();
  }
  ASSERT_EQ(manifest.size(), 1u);
  const std::string path = options.dir + "/" + manifest[0];
  std::string contents;
  ASSERT_TRUE(common::ReadFileToString(path, &contents).ok());
  contents[contents.size() / 2] ^= 0x01;
  ASSERT_TRUE(common::WriteFileAtomic(path, contents).ok());
  internal::FrontierSpool broken(options);
  uint64_t ignored = 0;
  common::Status status = broken.AdoptSegments(manifest, &ignored);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace xmodel::tlax
