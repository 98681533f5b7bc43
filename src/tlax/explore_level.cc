// The exploration engine's level loop: workers pull parent entries from
// the current level via an atomic cursor, push discoveries into
// worker-local buffers, and barrier; the barrier merges tallies, settles
// the next level's order, and handles violations/limits, running its
// steps on the otherwise idle pool. Bit-identical results across worker
// counts — see DESIGN.md "Parallel checking".

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "tlax/explore.h"
#include "tlax/frontier_spill.h"

namespace xmodel::tlax::internal {

void Engine::DrainLevel(const std::vector<LevelEntry*>& order,
                                 size_t base, int worker) {
  Scratch& s = scratch_[static_cast<size_t>(worker)];
  const bool poll = report_progress_ && worker == 0;
  const bool flush = report_progress_;
  const int64_t drain_start_ns = clock_->NowNanos();
  uint32_t heartbeat_countdown = kHeartbeatBatchEntries;
  for (;;) {
    const size_t pos = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (pos >= order.size()) break;
    if (poll) PollProgress(order.size(), pos);
    const uint64_t gen_before = s.generated;
    const size_t next_before = s.next.size();
    ProcessEntry(*order[pos], base + pos, s, worker);
    if (flush) {
      generated_level_.fetch_add(s.generated - gen_before,
                                 std::memory_order_relaxed);
      next_count_.fetch_add(s.next.size() - next_before,
                            std::memory_order_relaxed);
    }
    // A single level can run arbitrarily long, so the watchdog cannot
    // wait for the barrier heartbeat: every worker pets it per expansion
    // batch. Heartbeat() is a relaxed atomic store — observational only.
    if (options_.watchdog != nullptr && --heartbeat_countdown == 0) {
      heartbeat_countdown = kHeartbeatBatchEntries;
      options_.watchdog->Heartbeat();
    }
  }
  if (!s.staged_items.empty()) {
    // Tail batch: the level ran out of entries with successors staged.
    const size_t next_before = s.next.size();
    FlushStaged(s);
    if (flush) {
      next_count_.fetch_add(s.next.size() - next_before,
                            std::memory_order_relaxed);
    }
  }
  s.drain_end_ns = clock_->NowNanos();
  s.busy_ns += s.drain_end_ns - drain_start_ns;
}

namespace {

// A next-level entry's settled sort key and its index in its run: the
// per-run sorts move these instead of whole entries.
struct RunRef {
  uint64_t key = 0;
  uint64_t fp = 0;
  size_t index = 0;
};

// The settled order of a level: discovery key, then fingerprint. Keys are
// unique within one level's events unless one action yields more than
// 0xFFFF successors at one parent (EventKey saturates the ordinal); the
// fingerprint breaks such ties, so the order stays a pure function of the
// state graph.
bool RefBefore(const RunRef& a, const RunRef& b) {
  return a.key != b.key ? a.key < b.key : a.fp < b.fp;
}

// Positions in the sorted ref runs that split their union at `rank`: the
// cuts sum to `rank`, and the refs before the cuts all precede the rest in
// the merge's order, where equal refs go lower run first. In that order
// every ref has its own rank, so the ref of rank `rank` is found by a
// binary search within whichever run holds it (k^2 log^2 n comparisons for
// k runs); when `rank` is the total, every run ends.
std::vector<size_t> CutAtRank(const std::vector<std::vector<RunRef>>& refs,
                              size_t rank) {
  std::vector<size_t> cut(refs.size());
  // Where ref j of run i splits run r.
  const auto split = [&refs](size_t i, size_t j, size_t r) -> size_t {
    if (r == i) return j;
    const std::vector<RunRef>& run = refs[r];
    const RunRef& x = refs[i][j];
    return static_cast<size_t>(
        (r < i ? std::upper_bound(run.begin(), run.end(), x, RefBefore)
               : std::lower_bound(run.begin(), run.end(), x, RefBefore)) -
        run.begin());
  };
  for (size_t i = 0; i < refs.size(); ++i) {
    size_t lo = 0;
    size_t hi = refs[i].size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      size_t before = 0;
      for (size_t r = 0; r < refs.size(); ++r) before += split(i, mid, r);
      if (before == rank) {
        for (size_t r = 0; r < refs.size(); ++r) cut[r] = split(i, mid, r);
        return cut;
      }
      if (before < rank) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
  }
  for (size_t r = 0; r < refs.size(); ++r) cut[r] = refs[r].size();
  return cut;
}

}  // namespace

Level Level::Of(std::vector<LevelEntry> entries) {
  Level level;
  level.storage.push_back(std::move(entries));
  for (LevelEntry& e : level.storage.back()) level.order.push_back(&e);
  return level;
}

std::vector<LevelEntry*> MergeSettledRuns(
    std::vector<std::vector<LevelEntry>>& runs, common::WorkerPool* pool) {
  // Sort each run's refs on its own task (task-local until done: adjacent
  // vector headers share cache lines).
  std::vector<std::vector<RunRef>> refs(runs.size());
  common::ParallelFor(pool, runs.size(), [&](size_t r) {
    std::vector<RunRef> sorted;
    sorted.reserve(runs[r].size());
    for (size_t i = 0; i < runs[r].size(); ++i) {
      sorted.push_back(RunRef{runs[r][i].key, runs[r][i].fp, i});
    }
    std::sort(sorted.begin(), sorted.end(), RefBefore);
    refs[r] = std::move(sorted);
  });
  // One task per pool worker merges an equal share of the output: a
  // k-way merge of the runs' slices between the cuts at its first and
  // last rank. One run per worker is few enough that a linear scan of the
  // run heads beats a heap.
  size_t total = 0;
  for (const std::vector<LevelEntry>& run : runs) total += run.size();
  std::vector<LevelEntry*> order(total);
  const size_t parts = common::ParallelWidth(pool);
  common::ParallelFor(pool, parts, [&](size_t p) {
    const size_t begin = p * total / parts;
    const size_t end = (p + 1) * total / parts;
    std::vector<size_t> head = CutAtRank(refs, begin);
    const std::vector<size_t> stop = CutAtRank(refs, end);
    for (size_t out = begin; out < end; ++out) {
      size_t best = runs.size();
      for (size_t r = 0; r < runs.size(); ++r) {
        if (head[r] == stop[r]) continue;
        if (best == runs.size() ||
            RefBefore(refs[r][head[r]], refs[best][head[best]])) {
          best = r;
        }
      }
      order[out] = &runs[best][refs[best][head[best]++].index];
    }
  });
  return order;
}

Level Engine::AssembleNext() {
  if (workers_ > 1) {
    // Two workers can race to discover the same state; whoever wins the
    // insert owns the enqueue, but the record's min-merged key is the
    // serial discovery order. Re-key from the settled records — now
    // read-only, so without shard locks — so the level order is
    // worker-count-invariant.
    pool_.Run([this](int worker) {
      for (LevelEntry& e : scratch_[static_cast<size_t>(worker)].next) {
        if (std::optional<uint64_t> key = fpset_.QuiescentOrderKey(e.fp)) {
          e.key = *key;
        }
      }
    });
  }
  Level next;
  for (Scratch& s : scratch_) next.storage.push_back(std::move(s.next));
  for (Scratch& s : scratch_) s.next.clear();
  next.order = MergeSettledRuns(next.storage, &pool_);
  return next;
}

void Engine::SettleGraph(Level& next) {
  // With record_graph the next level is exactly this level's constrained
  // new states (no spilling), in settled order — the order a serial scan
  // numbers them in.
  StateGraph& graph = *result_.graph;
  const uint32_t first = graph.AddNodes(next.size());
  const size_t parts = common::ParallelWidth(&pool_);
  common::ParallelFor(&pool_, parts, [&](size_t p) {
    const size_t end = (p + 1) * next.size() / parts;
    for (size_t i = p * next.size() / parts; i < end; ++i) {
      LevelEntry& e = *next.order[i];
      e.gid = first + static_cast<uint32_t>(i);
      graph.SetNode(e.gid, e.fp, e.state);
    }
  });
  pool_.Run([&graph](int worker) { graph.ResolveEdges(worker); });
}

CheckResult Engine::Run() {
  StartRun();

  // The settled sort order survives the spool's disk round trip, so
  // results stay bit-identical with or without spilling.
  if (spill_enabled_) {
    FrontierSpool::Options spool_options;
    spool_options.dir = spill_dir_;
    spool_options.durable = checkpointing_;
    // Segment granularity tracks the in-memory cap: the drain loop pops
    // one segment at a time back into memory, so segments larger than
    // the cap would defeat it.
    spool_options.segment_entries =
        std::min(spool_options.segment_entries, frontier_inmem_cap_);
    spool_ = std::make_unique<FrontierSpool>(std::move(spool_options));
  }

  // The in-memory part of the current level.
  Level level;
  if (options_.resume) {
    if (!checkpointing_) {
      return Finish(common::Status::InvalidArgument(
          result_.spill_notice.empty()
              ? "--resume requires --checkpoint-dir"
              : common::StrCat("--resume: ", result_.spill_notice)));
    }
    common::Status status = Resume();
    if (!status.ok()) return Finish(status);
  } else {
    std::vector<LevelEntry> seeds;
    if (!SeedInitial(&seeds)) return Finish(common::Status::OK());
    level = Level::Of(std::move(seeds));
  }

  obs::Histogram& level_hist = obs::MetricsRegistry::Global().GetHistogram(
      "checker.frontier.level_size");

  while (true) {
    const size_t level_size =
        level.size() + (spool_ != nullptr ? spool_->size() : 0);
    if (level_size == 0) break;
    if (level_size > result_.frontier_peak) {
      result_.frontier_peak = level_size;
    }
    level_hist.Observe(static_cast<double>(level_size));

    // Drain the level batch by batch: the in-memory head first, then
    // each spooled segment. `base` keeps entry positions — and so
    // EventKey/DeadlockKey — level-global, exactly as if the whole level
    // were one vector. Without spilling there is exactly one batch.
    size_t base = 0;
    int64_t pool_end_ns = 0;
    while (true) {
      if (level.size() == 0) {
        if (spool_ == nullptr || spool_->empty()) break;
        std::vector<LevelEntry> batch;
        common::Status status = spool_->PopBatch(&batch);
        if (!status.ok()) return Finish(status);
        if (batch.empty()) break;
        level = Level::Of(std::move(batch));
      }
      next_index_.store(0, std::memory_order_relaxed);
      const size_t batch_base = base;
      pool_.Run([this, &level, batch_base](int worker) {
        DrainLevel(level.order, batch_base, worker);
      });
      base += level.size();
      level = Level();
      // Fork-join imbalance: each worker waited from its own drain end
      // until the slowest worker released the pool.
      pool_end_ns = clock_->NowNanos();
      for (Scratch& s : scratch_) {
        if (s.drain_end_ns > 0 && pool_end_ns > s.drain_end_ns) {
          s.barrier_wait_ns += pool_end_ns - s.drain_end_ns;
        }
        s.drain_end_ns = 0;
      }
    }

    // Barrier: merge worker tallies, build the next level in
    // deterministic discovery order, settle violations/limits. Every
    // return from here on counts the barrier into settle_ns_.
    const auto end_barrier = [this, pool_end_ns](common::Status status) {
      settle_ns_ += clock_->NowNanos() - pool_end_ns;
      return Finish(std::move(status));
    };
    std::vector<CandidateViolation> candidates;
    uint64_t level_generated = 0;
    for (Scratch& s : scratch_) {
      level_generated += s.generated;
      result_.generated_states += s.generated;
      s.generated = 0;
      if (s.diameter > result_.diameter) result_.diameter = s.diameter;
      for (CandidateViolation& c : s.candidates) {
        candidates.push_back(std::move(c));
      }
      s.candidates.clear();
    }
    generated_level_.store(0, std::memory_order_relaxed);
    ++result_.levels_completed;

    // A completed level is the checker's natural heartbeat and a debug
    // event; its end publishes the run record (so a /metrics scrape
    // advances mid-run). None of this touches exploration state.
    if (options_.watchdog != nullptr) options_.watchdog->Heartbeat();
    obs::EventLog& events = obs::EventLog::Global();
    if (events.enabled()) {
      events.Emit(
          obs::EventSeverity::kDebug, "checker", "level.completed",
          {{"level", common::StrCat(result_.levels_completed)},
           {"level_size", common::StrCat(level_size)},
           {"generated", common::StrCat(level_generated)},
           {"distinct", common::StrCat(fpset_.size())}});
    }
    if (spill_enabled_) {
      // A disk-tier IO/corruption error makes membership answers
      // unreliable; stop cleanly instead of diverging.
      common::Status spill_status = fpset_.spill_status();
      if (!spill_status.ok()) return end_barrier(spill_status);
    }

    int64_t step_ns = clock_->NowNanos();
    const auto step_done = [this, &step_ns](int64_t* total_ns) {
      const int64_t now_ns = clock_->NowNanos();
      *total_ns += now_ns - step_ns;
      step_ns = now_ns;
    };
    Level next = AssembleNext();
    step_done(&assemble_ns_);
    if (result_.graph) {
      // Number this level's graph discoveries before any early return: a
      // violating level must still land in the graph (identically under
      // every worker count) so liveness and MBTCG runs over violating
      // configs stay deterministic.
      SettleGraph(next);
      step_done(&graph_ns_);
    }

    if (!candidates.empty()) {
      // A violating level is always fully drained first, so the serial
      // winner — the smallest discovery key — is available under every
      // worker count and the resulting trace is identical. Candidate keys
      // were assigned by whichever worker won the insert race; re-key
      // invariant violations from the settled (min-merged) records so the
      // comparison matches the serial discovery order. Deadlock keys are
      // per-parent-position and already settled.
      if (workers_ > 1) {
        for (CandidateViolation& c : candidates) {
          if (c.kind == "Deadlock") continue;
          if (std::optional<FingerprintSet::Edge> edge =
                  fpset_.GetEdge(c.fp)) {
            c.key = edge->order_key;
          }
        }
      }
      const CandidateViolation& best = *std::min_element(
          candidates.begin(), candidates.end(),
          [](const CandidateViolation& a, const CandidateViolation& b) {
            return a.key < b.key;
          });
      result_.violation =
          Violation{best.kind, BuildTrace(best.fp, best.state)};
      return end_barrier(common::Status::OK());
    }
    // The cap is tested here, once the level is complete, so a cut run's
    // counts are the same at every worker count.
    if (fpset_.size() > options_.max_distinct_states) {
      return end_barrier(common::Status::ResourceExhausted(
          common::StrCat("exceeded max distinct states (",
                         options_.max_distinct_states, ")")));
    }

    if (spill_enabled_) {
      // Budget eviction first (the level's inserts grew the hot table),
      // then a due checkpoint (evicts the remainder so the manifest names
      // only sealed runs and segments), else plain frontier overflow.
      step_ns = clock_->NowNanos();
      common::Status status = fpset_.EvictIfOverBudget(&pool_);
      step_done(&evict_ns_);
      if (status.ok() && checkpointing_ &&
          CheckpointDue(clock_->NowNanos())) {
        const int64_t ckpt_start_ns = clock_->NowNanos();
        step_ns = clock_->NowNanos();
        status = fpset_.EvictAll(&pool_);
        step_done(&evict_ns_);
        if (status.ok()) status = spool_->Append(next.order, &pool_);
        if (status.ok()) status = spool_->Seal();
        step_done(&spool_ns_);
        if (status.ok()) {
          status = WriteCheckpointManifest(options_.checkpoint_dir,
                                           MakeManifest(),
                                           /*durable=*/true);
        }
        if (status.ok()) {
          // The new manifest no longer references compacted-away runs or
          // consumed segments; their files can finally go.
          fpset_.PurgeSpillRetired();
          spool_->PurgeConsumed();
          const int64_t ckpt_end_ns = clock_->NowNanos();
          checkpoint_ms_ +=
              static_cast<double>(ckpt_end_ns - ckpt_start_ns) * 1e-6;
          CheckpointWritten(ckpt_end_ns);
          next = Level();  // Everything rides the spool now.
        }
      } else if (status.ok()) {
        // Keep the head hot, spool the (later-ordered) rest.
        if (next.size() > frontier_inmem_cap_) {
          status = spool_->Append(std::span<LevelEntry* const>(next.order)
                                      .subspan(frontier_inmem_cap_),
                                  &pool_);
          next.order.resize(frontier_inmem_cap_);
          step_done(&spool_ns_);
        }
      }
      if (!status.ok()) return end_barrier(status);
    }
    SyncResult();
    Publish(/*run_ended=*/false);
    level = std::move(next);
    next_count_.store(0, std::memory_order_relaxed);
    settle_ns_ += clock_->NowNanos() - pool_end_ns;
  }
  return Finish(common::Status::OK());
}

}  // namespace xmodel::tlax::internal
