#ifndef XMODEL_TLAX_FPSET_H_
#define XMODEL_TLAX_FPSET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/status.h"
#include "tlax/fp_table.h"
#include "tlax/fpset_spill.h"
#include "tlax/state.h"

namespace xmodel::tlax {

/// Stable 64-bit state fingerprint built on the existing Value hashing:
/// State carries the order-dependent combination of its variables'
/// structural hashes; one extra finalizer mix decorrelates the table key
/// from the raw per-state hash that other layers (symmetry, coverage)
/// already consume.
inline uint64_t Fingerprint(const State& state) {
  return common::Mix64(state.fingerprint() ^ 0x9e3779b97f4a7c15ULL);
}

/// Sentinel action index marking an initial state's record (no
/// predecessor to replay from).
inline constexpr uint16_t kFpInitialAction = UINT16_MAX;

/// Outcome of FingerprintSet::Insert.
struct FpInsert {
  /// The fingerprint was new; a record was created.
  bool inserted = false;
  /// POR mode only: this revisit left the record's pending sleep mask
  /// strictly below its settled one. The caller should report the
  /// fingerprint as a wake candidate; SettlePor decides at the level
  /// barrier whether re-expansion is actually needed.
  bool sleep_shrunk = false;
};

/// One insert of a FingerprintSet::InsertBatch call: Insert's arguments.
struct FpInsertItem {
  uint64_t fp = 0;
  uint64_t pred_fp = 0;
  uint64_t order_key = 0;
  uint64_t sleep_mask = 0;
  int64_t depth = 0;
  uint16_t action = 0;
};

/// The model checker's seen-state table: a striped (sharded) hash table
/// keyed by 64-bit fingerprint, storing compact predecessor records
/// `{pred_fp, action}` instead of full states — the TLC fingerprint-set
/// design. Each shard is a flat open-addressing table of 32-byte slots
/// (internal::FpTable); POR masks live in a parallel array only under
/// Options::track_por. Counterexample traces are reconstructed by replaying actions
/// along the predecessor chain from an initial state, so dropping the
/// states costs nothing but that replay.
///
/// The table is insert-only: a record is never erased on its own, and an
/// eviction seals the whole hot table to disk and clears it.
///
/// Thread safety: every single-key operation takes exactly one shard
/// mutex, and InsertBatch takes each shard it touches once per pass;
/// shards are selected by the fingerprint's top bits, so concurrent
/// workers rarely collide. With a spill tier, the eviction lock is also
/// the one lock on the tier's run list (SpillTier is externally
/// synchronized). InsertBatch holds it shared for the whole batch, so no
/// eviction lands between a batch's hot-table miss and its insert;
/// GetEdge and the spill_* readers hold it shared around their tier
/// calls; EvictAll, AdoptSpillRuns and PurgeSpillRetired hold it
/// exclusively. size() is a lock-free counter.
class FingerprintSet {
 public:
  struct Options {
    /// Lock stripes; rounded up to a power of two. Many more stripes than
    /// workers keeps contention negligible.
    int num_shards = 64;
    /// Maintain per-state sleep/done masks for sleep-set POR.
    bool track_por = false;
    /// Out-of-core tier: directory for sealed spill runs. Empty disables
    /// spilling entirely. Incompatible with track_por (sleep-set POR
    /// updates the masks of records that eviction would have sealed; the
    /// engine gates this).
    std::string spill_dir;
    /// Allocated hot-table bytes (see table_bytes()) that trigger eviction
    /// via EvictIfOverBudget. 0 means no budget (evictions only happen on
    /// explicit EvictAll, e.g. at checkpoints). The hot table gets the
    /// whole budget; spill runs are read through the OS page cache.
    uint64_t memory_budget_bytes = 0;
    /// Checkpoint durability: fsync spill runs, and keep compacted-away
    /// runs until PurgeSpillRetired() (a manifest may still name them).
    bool spill_durable = false;
  };

  FingerprintSet();  // Default options.
  explicit FingerprintSet(Options options);

  /// Records `fp` if unseen (predecessor `pred_fp` via `action`, at
  /// `depth`, discovered at `order_key`); otherwise merges: min-merges
  /// the predecessor for same-depth candidates with a smaller order key
  /// — so counterexample traces are bit-identical across worker counts
  /// — and intersects the POR sleep mask into the record's PENDING mask
  /// (reporting sleep_shrunk when pending drops below the settled mask).
  /// The settled mask that expansion reads is only updated by SettlePor
  /// at a level barrier, so mid-level revisits never race with
  /// AcquireExpand — that two-phase split is what makes every POR counter
  /// and trace worker-count-invariant.
  ///
  /// With a spill tier, a hot-table miss is probed against the sealed
  /// runs before it is recorded, so `inserted` is final either way; a
  /// fingerprint found on disk is a revisit whose settled disk edge is
  /// kept as is. Insert is a one-item InsertBatch: callers with many
  /// fingerprints batch them so that the disk probe sweeps each run once.
  ///
  /// The trailing null argument carries nothing; it keeps seven-argument
  /// callers (xbench/bench_xmodel.cc) compiling.
  FpInsert Insert(uint64_t fp, uint64_t pred_fp, uint16_t action,
                  int64_t depth, uint64_t order_key, uint64_t sleep_mask,
                  std::nullptr_t = nullptr);

  /// Inserts `items` and stores in out[i] exactly what Insert(items[i])
  /// would return had the items been inserted one at a time, in order;
  /// `out` has one element per item. The batch is grouped by shard with
  /// a stable counting sort, so each touched shard is locked once and
  /// sees its items in their given order. Items in different shards have
  /// different fingerprints and touch disjoint records, so the grouping
  /// changes no result. Within a shard, each slot line is prefetched a
  /// few items before its lookup.
  ///
  /// With a spill tier the batch runs in two passes: the first merges
  /// hot-table hits and collects the misses, one SpillTier::FindBatch
  /// probes the misses' distinct fingerprints against every run, and the
  /// second inserts the misses that no run holds. A fingerprint another
  /// worker inserted between the passes is merged as a revisit there.
  void InsertBatch(std::span<const FpInsertItem> items,
                   std::span<FpInsert> out);

  /// POR expansion handshake: atomically clears the record's queued flag,
  /// returns its current sleep mask and previously-expanded mask, and
  /// marks the newly grantable actions (`all_actions & ~sleep & ~done`)
  /// as done. Requires Options::track_por.
  struct ExpandGrant {
    uint64_t sleep = 0;
    uint64_t explored_before = 0;
    uint64_t to_expand = 0;
  };
  ExpandGrant AcquireExpand(uint64_t fp, uint64_t all_actions);

  /// POR barrier step: applies the pending sleep-mask shrinks accumulated
  /// by this level's Inserts to the settled mask, and decides whether the
  /// state must be re-enqueued (`wake`): it is not already queued and the
  /// shrink uncovered actions neither slept nor done. Sets the queued
  /// flag when waking; `depth` and `order_key` are the record's settled
  /// values for building the wake entry. Call once per wake-candidate
  /// fingerprint at each barrier; the per-record result is independent of
  /// call order. Requires Options::track_por.
  struct PorSettle {
    bool wake = false;
    int64_t depth = 0;
    uint64_t order_key = 0;
  };
  PorSettle SettlePor(uint64_t fp, uint64_t all_actions);

  /// The discovery edge of `fp`: predecessor fingerprint and action
  /// (action == kFpInitialAction for initial states), plus the settled
  /// (min-merged) discovery order key. Nullopt when the fingerprint is
  /// unknown. A hot-table miss probes the spill runs under the eviction
  /// lock held shared, so it waits out a running seal or compaction; an
  /// evicted fingerprint was sealed before its shard was cleared, so it
  /// is always found on one side or the other.
  struct Edge {
    uint64_t pred_fp = 0;
    uint64_t order_key = 0;
    uint16_t action = kFpInitialAction;
    int64_t depth = 0;
  };
  std::optional<Edge> GetEdge(uint64_t fp) const;
  /// GetEdge(fp)->order_key, read from the hot table without its shard
  /// lock: valid only while no thread writes the table — a level
  /// barrier, where every worker re-keys its next-level entries at once
  /// and the shard locks would only bounce between them.
  std::optional<uint64_t> QuiescentOrderKey(uint64_t fp) const;

  /// Number of distinct fingerprints inserted.
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  /// Aggregate load factor across shards (records per slot, at most 7/8):
  /// what CheckResult::fingerprint_load reports.
  double load_factor() const;
  /// Bytes allocated by every shard's slot array (and POR array): what
  /// EvictIfOverBudget compares against Options::memory_budget_bytes.
  size_t table_bytes() const {
    return table_bytes_.load(std::memory_order_relaxed);
  }
  size_t num_shards() const { return shards_.size(); }

  /// Whether the out-of-core tier is active (Options::spill_dir set).
  bool has_spill() const { return tier_ != nullptr; }

  /// Evicts the whole hot table as one sealed run when table_bytes()
  /// exceeds Options::memory_budget_bytes; no-op otherwise.
  /// Safe to call concurrently with Insert/InsertBatch/GetEdge: it holds
  /// the eviction lock exclusively for the seal, the clear and any
  /// compaction, so it waits for running batches and disk probes and
  /// holds new ones off until the run list is settled. Concurrent
  /// evictions serialize on the same lock. The checker itself evicts only
  /// at a level barrier. The per-shard collect, sort and clear and the
  /// run encode run on `pool` (inline when null — a caller that is itself
  /// a pool task passes null); the sealed run is the same either way.
  common::Status EvictIfOverBudget(common::WorkerPool* pool = nullptr);
  /// Unconditionally evicts the hot table (checkpoint preparation: a
  /// manifest names only sealed runs, so everything must be on disk).
  /// Each shard it empties shrinks back to its floor capacity. Then runs
  /// the tier's compaction, inline, if the run count calls for it.
  common::Status EvictAll(common::WorkerPool* pool = nullptr);

  /// Resume path: adopts previously sealed run files (validated; corrupt
  /// files are a clean kCorruption error) and resets size() to their
  /// record total. The hot table must be empty.
  common::Status AdoptSpillRuns(const std::vector<std::string>& files);
  /// Deletes compaction-retired run files (after a manifest write).
  void PurgeSpillRetired();

  /// Stats / sticky IO error / live runs of the disk tier (zero/OK/empty
  /// when spilling is off).
  SpillTier::Stats spill_stats() const;
  common::Status spill_status() const;
  std::vector<SpillTier::RunInfo> spill_run_infos() const;

 private:
  // Cache-line aligned: workers lock and probe different shards at once,
  // and adjacent shards must not share a line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    internal::FpTable table;
  };

  size_t ShardIndex(uint64_t fp) const {
    return static_cast<size_t>(fp >> shard_shift_) & shard_mask_;
  }
  Shard& ShardFor(uint64_t fp) { return shards_[ShardIndex(fp)]; }
  const Shard& ShardFor(uint64_t fp) const { return shards_[ShardIndex(fp)]; }

  // Inserts items[run[0]], items[run[1]], ... in that order into `shard`,
  // whose mutex the caller holds; fills out[] at the same indices and
  // returns how many records it created. When `misses` is non-null, an
  // item absent from the hot table is not inserted: its index is
  // appended to *misses and its out[] entry is left to the caller.
  size_t InsertRun(Shard& shard, std::span<const FpInsertItem> items,
                   std::span<const uint32_t> run, std::span<FpInsert> out,
                   std::vector<uint32_t>* misses);

  // Fills the record just claimed at `index` (queued, with the item's
  // edge and sleep mask).
  void InitRecord(internal::FpTable& table, size_t index,
                  const FpInsertItem& item) const;
  FpInsert MergeRevisit(Shard& shard, size_t index, const FpInsertItem& item);

  Options options_;
  // Read by every operation and written only by the constructor.
  std::vector<Shard> shards_;
  int shard_shift_ = 0;
  size_t shard_mask_ = 0;
  // Out-of-core tier (null unless Options::spill_dir is set).
  std::unique_ptr<SpillTier> tier_;
  // With a tier: the lock on the tier's run list (see the class comment).
  mutable std::shared_mutex evict_mu_;

  // Counters that inserts from every worker bump, each on a cache line of
  // its own: sharing one with each other or with the read-mostly fields
  // above would make every insert invalidate the line that every other
  // operation reads.
  alignas(64) std::atomic<size_t> size_{0};
  // Allocated bytes of every shard's table.
  alignas(64) std::atomic<size_t> table_bytes_{0};
};

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_FPSET_H_
