#include "tlax/fpset.h"

#include <algorithm>
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

// Estimated resident bytes per hot record: unordered_map node (key,
// Record, next pointer, cached hash) plus amortized bucket array. What
// EvictIfOverBudget compares against the memory budget.
constexpr size_t kHotRecordBytes = 96;

}  // namespace

FingerprintSet::FingerprintSet() : FingerprintSet(Options()) {}

FingerprintSet::FingerprintSet(Options options) : options_(options) {
  if (options_.audit) options_.keep_states = true;
  int shards = RoundUpPow2(options_.num_shards < 1 ? 1 : options_.num_shards);
  shards_ = std::vector<Shard>(static_cast<size_t>(shards));
  // Index by the top bits: the low bits feed each shard's own bucket
  // hashing, so reusing them for shard selection would correlate the two.
  shard_shift_ = 64 - Log2(shards);
  if (shards == 1) shard_shift_ = 0;  // (fp >> 0) & 0 == 0 either way.
  if (!options_.spill_dir.empty()) {
    SpillTier::Options spill;
    spill.dir = options_.spill_dir;
    spill.durable = options_.spill_durable;
    spill.defer_deletes = options_.spill_defer_deletes;
    tier_ = std::make_unique<SpillTier>(spill);
  }
}

FpInsert FingerprintSet::Insert(uint64_t fp, uint64_t pred_fp, uint16_t action,
                                int64_t depth, uint64_t order_key,
                                uint64_t sleep_mask, const State* state) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  FpInsert out;
  if (tier_ != nullptr && shard.records.find(fp) == shard.records.end()) {
    // Disk probe under the shard lock: the evictor only erases a
    // fingerprint from this shard after its run is sealed (and never
    // holds the run-list lock exclusively while waiting on a shard), so
    // a fingerprint is in the hot table or on disk at every instant and
    // a miss here really means "new". Bloom filters keep the common
    // negative at memory speed. Disk-resident records are settled by
    // construction (eviction happens at barriers / batch boundaries), so
    // a disk hit needs no min-merge or POR handling.
    SpillTier::EdgeData disk_edge;
    if (tier_->FindOnDisk(fp, &disk_edge)) {
      out.depth = disk_edge.depth;
      return out;
    }
  }
  auto [it, fresh] = shard.records.try_emplace(fp);
  Record& rec = it->second;
  if (fresh) {
    if (tier_ != nullptr) hot_count_.fetch_add(1, std::memory_order_relaxed);
    rec.pred_fp = pred_fp;
    rec.order_key = order_key;
    rec.depth = depth;
    rec.action = action;
    rec.sleep = sleep_mask;
    rec.pending = sleep_mask;
    rec.queued = true;
    if (options_.keep_states && state != nullptr) {
      shard.states.emplace(fp, *state);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    out.inserted = true;
    out.depth = depth;
    return out;
  }
  return MergeRevisit(shard, rec, fp, pred_fp, action, depth, order_key,
                      sleep_mask, state);
}

// Shared revisit path of Insert/InsertOrDefer; shard.mu must be held.
FpInsert FingerprintSet::MergeRevisit(Shard& shard, Record& rec, uint64_t fp,
                                      uint64_t pred_fp, uint16_t action,
                                      int64_t depth, uint64_t order_key,
                                      uint64_t sleep_mask,
                                      const State* state) {
  FpInsert out;
  out.depth = rec.depth;
  if (options_.audit && state != nullptr) {
    auto st = shard.states.find(fp);
    if (st != shard.states.end() && !(st->second == *state)) {
      collisions_.fetch_add(1, std::memory_order_relaxed);
      out.collision = true;
    }
  }
  if (options_.track_por) {
    if (options_.immediate_por_settle) {
      // Barrier-free merge for the relaxed policy: settle the shrink now
      // and decide the wake under the same shard lock. AcquireExpand and
      // other revisits serialize on that lock, so a shrink either lands
      // before an expansion reads the mask or uncovers work afterwards
      // and wakes the record — no uncovered action is ever lost.
      rec.pending &= sleep_mask;
      rec.sleep = rec.pending;
      if (!rec.queued &&
          (options_.por_all_actions & ~rec.sleep & ~rec.done) != 0) {
        rec.queued = true;
        out.wake = true;
      }
    } else {
      // Sleep-set intersect-merge (Godefroid), deferred: the shrink lands
      // in the pending mask only. SettlePor folds it into the settled mask
      // at the next level barrier, after every worker has drained — the
      // intersection is commutative, so the settled result is independent
      // of the order revisits arrived in.
      rec.pending &= sleep_mask;
      out.sleep_shrunk = rec.pending != rec.sleep;
    }
  }
  if (options_.min_merge_pred && depth == rec.depth &&
      order_key < rec.order_key) {
    // Same BFS level, earlier discovery order: adopt this edge so the
    // reconstructed trace matches what a serial scan would record.
    rec.pred_fp = pred_fp;
    rec.order_key = order_key;
    rec.action = action;
  }
  return out;
}

FpInsert FingerprintSet::InsertOrDefer(uint64_t fp, uint64_t pred_fp,
                                       uint16_t action, int64_t depth,
                                       uint64_t order_key,
                                       uint64_t sleep_mask,
                                       const State* state) {
  if (tier_ == nullptr) {
    return Insert(fp, pred_fp, action, depth, order_key, sleep_mask, state);
  }
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, fresh] = shard.records.try_emplace(fp);
  Record& rec = it->second;
  if (!fresh) {
    // Hot (possibly still provisional) record: classic revisit merge. A
    // merge into a provisional record that later turns out to be on
    // disk is simply discarded with it — exactly what the inline-probe
    // path would have done (disk-resident edges are settled and win).
    return MergeRevisit(shard, rec, fp, pred_fp, action, depth, order_key,
                        sleep_mask, state);
  }
  hot_count_.fetch_add(1, std::memory_order_relaxed);
  rec.pred_fp = pred_fp;
  rec.order_key = order_key;
  rec.depth = depth;
  rec.action = action;
  rec.sleep = sleep_mask;
  rec.pending = sleep_mask;
  rec.queued = true;
  rec.provisional = true;
  FpInsert out;
  out.pending = true;
  out.depth = depth;
  return out;
}

void FingerprintSet::ResolvePending(const std::vector<uint64_t>& fps,
                                    std::vector<uint8_t>* on_disk) {
  on_disk->assign(fps.size(), 0);
  if (tier_ == nullptr || fps.empty()) return;
  std::vector<uint64_t> sorted(fps);
  std::sort(sorted.begin(), sorted.end());
  std::vector<SpillTier::BatchHit> hits;
  tier_->FindBatch(sorted, &hits);
  for (size_t i = 0; i < fps.size(); ++i) {
    const size_t si = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), fps[i]) -
        sorted.begin());
    const bool found = hits[si].found;
    Shard& shard = ShardFor(fps[i]);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.records.find(fps[i]);
    if (it == shard.records.end() || !it->second.provisional) continue;
    if (found) {
      // Already explored and evicted: drop the provisional record — the
      // disk copy is the settled one.
      shard.records.erase(it);
      hot_count_.fetch_sub(1, std::memory_order_relaxed);
      (*on_disk)[i] = 1;
    } else {
      it->second.provisional = false;
      size_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

FingerprintSet::ExpandGrant FingerprintSet::AcquireExpand(
    uint64_t fp, uint64_t all_actions) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  ExpandGrant grant;
  auto it = shard.records.find(fp);
  if (it == shard.records.end()) return grant;
  Record& rec = it->second;
  rec.queued = false;
  grant.sleep = rec.sleep;
  grant.explored_before = rec.done;
  grant.to_expand = all_actions & ~rec.sleep & ~rec.done;
  rec.done |= grant.to_expand;
  return grant;
}

FingerprintSet::PorSettle FingerprintSet::SettlePor(uint64_t fp,
                                                    uint64_t all_actions) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  PorSettle settle;
  auto it = shard.records.find(fp);
  if (it == shard.records.end()) return settle;
  Record& rec = it->second;
  rec.sleep = rec.pending;
  settle.depth = rec.depth;
  settle.order_key = rec.order_key;
  // Wake only when the shrink uncovered work: an action neither settled
  // asleep nor already expanded. Already-queued states pick the new mask
  // up at their scheduled expansion.
  if (!rec.queued && (all_actions & ~rec.sleep & ~rec.done) != 0) {
    rec.queued = true;
    settle.wake = true;
  }
  return settle;
}

std::optional<FingerprintSet::Edge> FingerprintSet::GetEdge(uint64_t fp) const {
  {
    const Shard& shard = ShardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.records.find(fp);
    if (it != shard.records.end()) {
      return Edge{it->second.pred_fp, it->second.order_key,
                  it->second.action, it->second.depth};
    }
  }
  if (tier_ != nullptr) {
    SpillTier::EdgeData e;
    if (tier_->FindOnDisk(fp, &e)) {
      return Edge{e.pred_fp, e.order_key, e.action, e.depth};
    }
  }
  return std::nullopt;
}

std::optional<State> FingerprintSet::FindState(uint64_t fp) const {
  const Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.states.find(fp);
  if (it == shard.states.end()) return std::nullopt;
  return it->second;
}

common::Status FingerprintSet::EvictIfOverBudget() {
  if (tier_ == nullptr || options_.memory_budget_bytes == 0) {
    return common::Status::OK();
  }
  if (hot_count_.load(std::memory_order_relaxed) * kHotRecordBytes <=
      options_.memory_budget_bytes) {
    return common::Status::OK();
  }
  return EvictAll();
}

common::Status FingerprintSet::EvictAll() {
  if (tier_ == nullptr) return common::Status::OK();
  std::lock_guard<std::mutex> evict_lock(evict_mu_);
  // Copy out, seal, then erase — never erase before the run is
  // registered, so concurrent Insert probes always see the fingerprint
  // somewhere. Late same-level revisits of a captured record can still
  // min-merge the hot copy after this snapshot; the engines only evict
  // once those fields are settled (level barrier / batch boundary), so
  // the sealed edge is the settled one.
  std::vector<SpillTier::Entry> entries;
  std::vector<std::vector<uint64_t>> captured(shards_.size());
  for (size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = shards_[si];
    std::lock_guard<std::mutex> lock(shard.mu);
    captured[si].reserve(shard.records.size());
    for (const auto& [fp, rec] : shard.records) {
      // A provisional record has no disk verdict yet — sealing it could
      // duplicate a fingerprint across runs. Its owner resolves it at
      // the batch boundary; it stays hot until then.
      if (rec.provisional) continue;
      entries.emplace_back(
          fp, SpillTier::EdgeData{rec.pred_fp, rec.order_key, rec.depth,
                                  rec.action});
      captured[si].push_back(fp);
    }
  }
  if (entries.empty()) return common::Status::OK();
  std::sort(entries.begin(), entries.end(),
            [](const SpillTier::Entry& a, const SpillTier::Entry& b) {
              return a.first < b.first;
            });
  common::Status status = tier_->SealRun(entries);
  if (!status.ok()) return status;
  for (size_t si = 0; si < shards_.size(); ++si) {
    if (captured[si].empty()) continue;
    Shard& shard = shards_[si];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (uint64_t fp : captured[si]) shard.records.erase(fp);
  }
  hot_count_.fetch_sub(entries.size(), std::memory_order_relaxed);
  // SealRun woke the background merge if the run count calls for one;
  // its errors surface through the sticky status the engines poll.
  return tier_->status();
}

common::Status FingerprintSet::AdoptSpillRuns(
    const std::vector<std::string>& files) {
  if (tier_ == nullptr) {
    return common::Status::InvalidArgument(
        "AdoptSpillRuns: spilling is not enabled");
  }
  common::Status status = tier_->AdoptRuns(files);
  if (!status.ok()) return status;
  size_t total = 0;
  for (const SpillTier::RunInfo& info : tier_->run_infos()) {
    total += static_cast<size_t>(info.count);
  }
  size_.store(total, std::memory_order_relaxed);
  return common::Status::OK();
}

common::Status FingerprintSet::DropSpillOrphans() const {
  return tier_ == nullptr ? common::Status::OK() : tier_->DropOrphans();
}

void FingerprintSet::PurgeSpillRetired() {
  if (tier_ != nullptr) tier_->PurgeRetired();
}

void FingerprintSet::PauseSpillCompaction() {
  if (tier_ != nullptr) tier_->PauseCompaction();
}

void FingerprintSet::ResumeSpillCompaction() {
  if (tier_ != nullptr) tier_->ResumeCompaction();
}

void FingerprintSet::StopSpillBackground() {
  if (tier_ != nullptr) tier_->StopBackground();
}

SpillTier::Stats FingerprintSet::spill_stats() const {
  return tier_ == nullptr ? SpillTier::Stats{} : tier_->stats();
}

common::Status FingerprintSet::spill_status() const {
  return tier_ == nullptr ? common::Status::OK() : tier_->status();
}

std::vector<SpillTier::RunInfo> FingerprintSet::spill_run_infos() const {
  return tier_ == nullptr ? std::vector<SpillTier::RunInfo>{}
                          : tier_->run_infos();
}

double FingerprintSet::load_factor() const {
  size_t records = 0;
  size_t buckets = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    records += shard.records.size();
    buckets += shard.records.bucket_count();
  }
  return buckets == 0 ? 0.0 : static_cast<double>(records) / buckets;
}

}  // namespace xmodel::tlax
