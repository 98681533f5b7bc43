#include "tlax/fpset.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

namespace xmodel::tlax {
namespace {

int RoundUpPow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

int Log2(int pow2) {
  int bits = 0;
  while ((1 << bits) < pow2) ++bits;
  return bits;
}

}  // namespace

FingerprintSet::FingerprintSet() : FingerprintSet(Options()) {}

FingerprintSet::FingerprintSet(Options options) : options_(options) {
  int shards = RoundUpPow2(options_.num_shards < 1 ? 1 : options_.num_shards);
  shards_ = std::vector<Shard>(static_cast<size_t>(shards));
  for (Shard& shard : shards_) {
    shard.table.Init(options_.track_por, &table_bytes_);
  }
  // Index by the top bits: the low bits pick each shard's home slot, so
  // reusing them for shard selection would correlate the two.
  shard_shift_ = 64 - Log2(shards);
  if (shards == 1) shard_shift_ = 0;  // (fp >> 0) & 0 == 0 either way.
  shard_mask_ = static_cast<size_t>(shards) - 1;
  if (!options_.spill_dir.empty()) {
    SpillTier::Options spill;
    spill.dir = options_.spill_dir;
    spill.durable = options_.spill_durable;
    tier_ = std::make_unique<SpillTier>(spill);
  }
}

FpInsert FingerprintSet::Insert(uint64_t fp, uint64_t pred_fp, uint16_t action,
                                int64_t depth, uint64_t order_key,
                                uint64_t sleep_mask, std::nullptr_t) {
  const FpInsertItem item{fp, pred_fp, order_key, sleep_mask, depth, action};
  FpInsert out;
  InsertBatch({&item, 1}, {&out, 1});
  return out;
}

void FingerprintSet::InsertBatch(std::span<const FpInsertItem> items,
                                 std::span<FpInsert> out) {
  assert(out.size() == items.size());
  // Item indices grouped by shard, each group in item order: a stable
  // counting sort (thread-local scratch), or the lone index of Insert.
  thread_local std::vector<uint32_t> begin;
  thread_local std::vector<uint32_t> order;
  order.resize(items.size());
  if (items.size() == 1) {
    order[0] = 0;
  } else {
    begin.assign(shards_.size(), 0);
    for (const FpInsertItem& item : items) ++begin[ShardIndex(item.fp)];
    uint32_t sum = 0;
    for (uint32_t& b : begin) sum += std::exchange(b, sum);
    for (size_t i = 0; i < items.size(); ++i) {
      order[begin[ShardIndex(items[i].fp)]++] = static_cast<uint32_t>(i);
    }
  }
  // Runs InsertRun over `run` (grouped by shard), one lock per group.
  const auto insert_runs = [&](std::span<const uint32_t> run,
                               std::vector<uint32_t>* misses) {
    size_t created = 0;
    for (size_t start = 0; start < run.size();) {
      const size_t si = ShardIndex(items[run[start]].fp);
      size_t end = start + 1;
      while (end < run.size() && ShardIndex(items[run[end]].fp) == si) ++end;
      Shard& shard = shards_[si];
      std::lock_guard<std::mutex> lock(shard.mu);
      created += InsertRun(shard, items, run.subspan(start, end - start), out,
                           misses);
      start = end;
    }
    return created;
  };

  size_t created = 0;
  if (tier_ == nullptr) {
    created = insert_runs(order, nullptr);
  } else {
    // Held until the misses are inserted: an eviction between the passes
    // could seal a fingerprint that another worker inserted after the
    // probe, and this batch would then insert it a second time.
    std::shared_lock<std::shared_mutex> evict_lock(evict_mu_);
    thread_local std::vector<uint32_t> misses;
    thread_local std::vector<uint64_t> probe;
    thread_local std::vector<uint8_t> on_disk;
    misses.clear();
    insert_runs(order, &misses);
    if (!misses.empty()) {
      probe.clear();
      for (uint32_t i : misses) probe.push_back(items[i].fp);
      std::sort(probe.begin(), probe.end());
      probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
      tier_->FindBatch(probe, &on_disk);
      // Misses a run holds were explored and evicted: revisits whose
      // settled disk edge stays as it is. The rest stay in shard order.
      size_t kept = 0;
      for (uint32_t i : misses) {
        const size_t at = static_cast<size_t>(
            std::lower_bound(probe.begin(), probe.end(), items[i].fp) -
            probe.begin());
        if (on_disk[at] != 0) {
          out[i] = FpInsert{};
        } else {
          misses[kept++] = i;
        }
      }
      misses.resize(kept);
      created = insert_runs(misses, nullptr);
    }
  }
  if (created > 0) size_.fetch_add(created, std::memory_order_relaxed);
}

size_t FingerprintSet::InsertRun(Shard& shard,
                                 std::span<const FpInsertItem> items,
                                 std::span<const uint32_t> run,
                                 std::span<FpInsert> out,
                                 std::vector<uint32_t>* misses) {
  // Each lookup is usually a cache miss; prefetching a few items ahead
  // keeps several in flight at once.
  constexpr size_t kPrefetchAhead = 4;
  for (size_t k = 0; k < run.size() && k < kPrefetchAhead; ++k) {
    shard.table.Prefetch(items[run[k]].fp);
  }
  size_t created = 0;
  for (size_t k = 0; k < run.size(); ++k) {
    if (k + kPrefetchAhead < run.size()) {
      shard.table.Prefetch(items[run[k + kPrefetchAhead]].fp);
    }
    const FpInsertItem& item = items[run[k]];
    FpInsert& result = out[run[k]];
    bool fresh = false;
    size_t index;
    if (misses == nullptr) {
      index = shard.table.FindOrInsert(item.fp, &fresh);
    } else {
      index = shard.table.Find(item.fp);
      if (index == internal::FpTable::kNone) {
        misses->push_back(run[k]);
        continue;
      }
    }
    if (!fresh) {
      result = MergeRevisit(shard, index, item);
      continue;
    }
    InitRecord(shard.table, index, item);
    ++created;
    result = FpInsert{.inserted = true};
  }
  return created;
}

void FingerprintSet::InitRecord(internal::FpTable& table, size_t index,
                                const FpInsertItem& item) const {
  // Slots store depth as int32; BFS depths never come near that bound.
  assert(item.depth >= INT32_MIN && item.depth <= INT32_MAX);
  internal::FpSlot& rec = table.slot(index);
  rec.pred_fp = item.pred_fp;
  rec.order_key = item.order_key;
  rec.depth = static_cast<int32_t>(item.depth);
  rec.action = item.action;
  rec.set(internal::FpSlot::kQueued, true);
  if (options_.track_por) {
    table.por(index).sleep = item.sleep_mask;
    table.por(index).pending = item.sleep_mask;
  }
}

// Revisit path of InsertRun; shard.mu must be held.
FpInsert FingerprintSet::MergeRevisit(Shard& shard, size_t index,
                                      const FpInsertItem& item) {
  internal::FpSlot& rec = shard.table.slot(index);
  FpInsert out;
  if (options_.track_por) {
    internal::FpPorMasks& por = shard.table.por(index);
    // Sleep-set intersect-merge (Godefroid), deferred: the shrink lands
    // in the pending mask only. SettlePor folds it into the settled mask
    // at the next level barrier, after every worker has drained — the
    // intersection is commutative, so the settled result is independent
    // of the order revisits arrived in.
    por.pending &= item.sleep_mask;
    out.sleep_shrunk = por.pending != por.sleep;
  }
  if (item.depth == rec.depth && item.order_key < rec.order_key) {
    // Same BFS level, earlier discovery order: adopt this edge so the
    // reconstructed trace matches what a serial scan would record.
    rec.pred_fp = item.pred_fp;
    rec.order_key = item.order_key;
    rec.action = item.action;
  }
  return out;
}

FingerprintSet::ExpandGrant FingerprintSet::AcquireExpand(
    uint64_t fp, uint64_t all_actions) {
  assert(options_.track_por);
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  ExpandGrant grant;
  const size_t index = shard.table.Find(fp);
  if (index == internal::FpTable::kNone) return grant;
  internal::FpPorMasks& por = shard.table.por(index);
  shard.table.slot(index).set(internal::FpSlot::kQueued, false);
  grant.sleep = por.sleep;
  grant.explored_before = por.done;
  grant.to_expand = all_actions & ~por.sleep & ~por.done;
  por.done |= grant.to_expand;
  return grant;
}

FingerprintSet::PorSettle FingerprintSet::SettlePor(uint64_t fp,
                                                    uint64_t all_actions) {
  assert(options_.track_por);
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  PorSettle settle;
  const size_t index = shard.table.Find(fp);
  if (index == internal::FpTable::kNone) return settle;
  internal::FpSlot& rec = shard.table.slot(index);
  internal::FpPorMasks& por = shard.table.por(index);
  por.sleep = por.pending;
  settle.depth = rec.depth;
  settle.order_key = rec.order_key;
  // Wake only when the shrink uncovered work: an action neither settled
  // asleep nor already expanded. Already-queued states pick the new mask
  // up at their scheduled expansion.
  if (!rec.has(internal::FpSlot::kQueued) &&
      (all_actions & ~por.sleep & ~por.done) != 0) {
    rec.set(internal::FpSlot::kQueued, true);
    settle.wake = true;
  }
  return settle;
}

std::optional<FingerprintSet::Edge> FingerprintSet::GetEdge(uint64_t fp) const {
  {
    const Shard& shard = ShardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t index = shard.table.Find(fp);
    if (index != internal::FpTable::kNone) {
      const internal::FpSlot& rec = shard.table.slot(index);
      return Edge{rec.pred_fp, rec.order_key, rec.action, rec.depth};
    }
  }
  if (tier_ == nullptr) return std::nullopt;
  std::shared_lock<std::shared_mutex> evict_lock(evict_mu_);
  SpillTier::EdgeData e;
  if (!tier_->FindOnDisk(fp, &e)) return std::nullopt;
  return Edge{e.pred_fp, e.order_key, e.action, e.depth};
}

std::optional<uint64_t> FingerprintSet::QuiescentOrderKey(uint64_t fp) const {
  const Shard& shard = ShardFor(fp);
  const size_t index = shard.table.Find(fp);
  if (index != internal::FpTable::kNone) {
    return shard.table.slot(index).order_key;
  }
  std::optional<Edge> edge = GetEdge(fp);  // Evicted: the disk tier.
  if (!edge.has_value()) return std::nullopt;
  return edge->order_key;
}

common::Status FingerprintSet::EvictIfOverBudget(common::WorkerPool* pool) {
  if (tier_ == nullptr || options_.memory_budget_bytes == 0) {
    return common::Status::OK();
  }
  if (table_bytes() <= options_.memory_budget_bytes) {
    return common::Status::OK();
  }
  return EvictAll(pool);
}

common::Status FingerprintSet::EvictAll(common::WorkerPool* pool) {
  if (tier_ == nullptr) return common::Status::OK();
  // Exclusive, for two reasons. An InsertBatch between its disk probe and
  // its insert must not see a seal: a fingerprint another worker inserted
  // after the probe would be sealed, and then inserted a second time. And
  // the lock is the tier's only one: SealRun and CompactIfNeeded change
  // the run list that FindBatch and GetEdge read. Copy out, seal, then
  // clear, so a failed seal loses no record. The engine only evicts at a
  // level barrier, once every revisit has min-merged its record, so the
  // sealed edge is the settled one; a later revisit of a sealed
  // fingerprint changes nothing.
  //
  // Collect, sort and clear are one task per shard: shard si holds
  // exactly the fingerprints whose top bits are si, so the shards' sorted
  // slices in shard order are the whole sorted run.
  std::unique_lock<std::shared_mutex> evict_lock(evict_mu_);
  using Entry = SpillTier::Entry;
  std::vector<std::vector<Entry>> slices(shards_.size());
  common::ParallelFor(pool, shards_.size(), [&](size_t si) {
    // Fill a task-local vector and move it in once: adjacent slice
    // headers share cache lines.
    std::vector<Entry> slice;
    Shard& shard = shards_[si];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      slice.reserve(shard.table.size());
      shard.table.ForEach([&slice](const internal::FpSlot& rec) {
        slice.emplace_back(rec.fp,
                           SpillTier::EdgeData{rec.pred_fp, rec.order_key,
                                               rec.depth, rec.action});
      });
    }
    std::sort(slice.begin(), slice.end(),
              [](const Entry& a, const Entry& b) { return a.first < b.first; });
    slices[si] = std::move(slice);
  });
  std::vector<std::span<const Entry>> spans(slices.begin(), slices.end());
  common::Status status = tier_->SealRun(spans, pool);
  if (!status.ok()) return status;
  common::ParallelFor(pool, shards_.size(), [&](size_t si) {
    if (slices[si].empty()) return;  // Already at the floor capacity.
    Shard& shard = shards_[si];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.table.Clear();
  });
  // Merge only once the hot table is cleared, so it and the merged run
  // are never resident together.
  return tier_->CompactIfNeeded();
}

common::Status FingerprintSet::AdoptSpillRuns(
    const std::vector<std::string>& files) {
  if (tier_ == nullptr) {
    return common::Status::InvalidArgument(
        "AdoptSpillRuns: spilling is not enabled");
  }
  std::unique_lock<std::shared_mutex> evict_lock(evict_mu_);
  common::Status status = tier_->AdoptRuns(files);
  if (!status.ok()) return status;
  size_t total = 0;
  for (const SpillTier::RunInfo& info : tier_->run_infos()) {
    total += static_cast<size_t>(info.count);
  }
  size_.store(total, std::memory_order_relaxed);
  return common::Status::OK();
}

void FingerprintSet::PurgeSpillRetired() {
  if (tier_ == nullptr) return;
  std::unique_lock<std::shared_mutex> evict_lock(evict_mu_);
  tier_->PurgeRetired();
}

SpillTier::Stats FingerprintSet::spill_stats() const {
  if (tier_ == nullptr) return SpillTier::Stats{};
  std::shared_lock<std::shared_mutex> evict_lock(evict_mu_);
  return tier_->stats();
}

common::Status FingerprintSet::spill_status() const {
  return tier_ == nullptr ? common::Status::OK() : tier_->status();
}

std::vector<SpillTier::RunInfo> FingerprintSet::spill_run_infos() const {
  if (tier_ == nullptr) return {};
  std::shared_lock<std::shared_mutex> evict_lock(evict_mu_);
  return tier_->run_infos();
}

double FingerprintSet::load_factor() const {
  size_t records = 0;
  size_t slots = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    records += shard.table.size();
    slots += shard.table.capacity();
  }
  return slots == 0 ? 0.0 : static_cast<double>(records) / slots;
}

}  // namespace xmodel::tlax
