// The deterministic level-synchronous exploration policy (the default):
// workers pull parent entries from the current level via an atomic
// cursor, push discoveries into worker-local buffers, and barrier; the
// barrier merges tallies, settles the next level's order, and handles
// violations/limits. Bit-identical results across worker counts — see
// DESIGN.md "Parallel checking".

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "tlax/explore.h"
#include "tlax/frontier_spill.h"

namespace xmodel::tlax::internal {

void LevelSyncEngine::DrainLevel(const std::vector<LevelEntry>& level,
                                 size_t base, int worker) {
  Scratch& s = scratch_[static_cast<size_t>(worker)];
  const bool poll = report_progress_ && worker == 0;
  const bool flush = report_progress_;
  const int64_t drain_start_ns = clock_->NowNanos();
  uint32_t heartbeat_countdown = kHeartbeatBatchEntries;
  for (;;) {
    if (abort_max_.load(std::memory_order_relaxed)) break;
    const size_t pos = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (pos >= level.size()) break;
    if (poll) PollProgress(level.size(), pos);
    const uint64_t gen_before = s.generated;
    const size_t next_before = s.next.size();
    ProcessEntry(level[pos], base + pos, s, worker);
    if (spill_enabled_ && s.pending.size() >= kSpillProbeBatch) {
      // Deferred disk probes settle in sorted batches (one merged sweep
      // per run instead of one probe per key). Still inside this entry's
      // flush window, so the live counters see the resolved states.
      ResolvePendingProbes(s);
    }
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
  if (spill_enabled_ && !s.pending.empty()) {
    // Tail batch: the level ran out of entries with probes still queued.
    const size_t next_before = s.next.size();
    ResolvePendingProbes(s);
    if (flush) {
      next_count_.fetch_add(s.next.size() - next_before,
                            std::memory_order_relaxed);
    }
  }
  s.drain_end_ns = clock_->NowNanos();
  s.busy_ns += s.drain_end_ns - drain_start_ns;
}

CheckResult LevelSyncEngine::Run() {
  StartRun();

  // Frontier overflow spool: the settled next level beyond the in-memory
  // head chunk lives here as sealed segment files, replayed FIFO — the
  // settled sort order survives the disk round trip, so results stay
  // bit-identical with or without spilling.
  std::unique_ptr<FrontierSpool> spool;
  if (spill_enabled_) {
    FrontierSpool::Options spool_options;
    spool_options.dir = spill_dir_;
    spool_options.durable = checkpointing_;
    spool_options.defer_deletes = checkpointing_;
    // Segment granularity tracks the in-memory cap: the drain loop pops
    // one segment at a time back into memory, so segments larger than
    // the cap would defeat it.
    spool_options.segment_entries =
        std::min(spool_options.segment_entries, frontier_inmem_cap_);
    spool = std::make_unique<FrontierSpool>(std::move(spool_options));
  }

  std::vector<LevelEntry> level;
  if (options_.resume) {
    if (!checkpointing_) {
      return Finish(common::Status::InvalidArgument(
          result_.spill_notice.empty()
              ? "--resume requires --checkpoint-dir"
              : common::StrCat("--resume: ", result_.spill_notice)));
    }
    CheckpointManifest manifest;
    common::Status status = ResumeCommon(&manifest);
    if (!status.ok()) return Finish(status);
    std::vector<std::string> segments;
    for (const std::vector<std::string>& files : manifest.frontiers) {
      segments.insert(segments.end(), files.begin(), files.end());
    }
    uint64_t adopted = 0;
    status = spool->AdoptSegments(segments, &adopted);
    if (!status.ok()) return Finish(status);
  } else if (!SeedInitial(&level)) {
    return Finish(common::Status::OK());
  }

  obs::Histogram& level_hist = obs::MetricsRegistry::Global().GetHistogram(
      "checker.frontier.level_size");

  while (true) {
    const size_t level_size =
        level.size() + (spool != nullptr ? spool->size() : 0);
    if (level_size == 0) break;
    if (level_size > result_.frontier_peak) {
      result_.frontier_peak = level_size;
    }
    level_hist.Observe(static_cast<double>(level_size));
    abort_max_.store(false, std::memory_order_relaxed);

    // Drain the level chunk by chunk: the in-memory head first, then
    // each spooled segment batch. `base` keeps entry positions — and so
    // EventKey/DeadlockKey — level-global, exactly as if the whole level
    // were one vector. Without spilling there is exactly one chunk and
    // this is the pre-spill loop verbatim.
    size_t base = 0;
    int64_t pool_end_ns = 0;
    while (true) {
      if (level.empty()) {
        if (spool == nullptr || spool->empty()) break;
        common::Status status = spool->PopBatch(&level);
        if (!status.ok()) return Finish(status);
        if (level.empty()) break;
      }
      next_index_.store(0, std::memory_order_relaxed);
      const size_t chunk_base = base;
      pool_.Run([this, &level, chunk_base](int worker) {
        DrainLevel(level, chunk_base, worker);
      });
      base += level.size();
      level.clear();
      // Fork-join imbalance: each worker waited from its own drain end
      // until the slowest worker released the pool.
      pool_end_ns = clock_->NowNanos();
      for (Scratch& s : scratch_) {
        if (s.drain_end_ns > 0 && pool_end_ns > s.drain_end_ns) {
          s.barrier_wait_ns += pool_end_ns - s.drain_end_ns;
        }
        s.drain_end_ns = 0;
      }
      if (abort_max_.load(std::memory_order_relaxed)) break;
    }

    // Barrier: merge worker tallies, settle violations/limits, and build
    // the next level in deterministic discovery order.
    std::vector<CandidateViolation> candidates;
    size_t next_total = 0;
    uint64_t level_generated = 0;
    for (Scratch& s : scratch_) {
      level_generated += s.generated;
      result_.generated_states += s.generated;
      s.generated = 0;
      result_.por_slept_actions += s.slept;
      s.slept = 0;
      if (s.diameter > result_.diameter) result_.diameter = s.diameter;
      for (CandidateViolation& c : s.candidates) {
        candidates.push_back(std::move(c));
      }
      s.candidates.clear();
      next_total += s.next.size();
    }
    generated_level_.store(0, std::memory_order_relaxed);
    ++result_.levels_completed;

    // Liveness + live observability: a completed level is the checker's
    // natural heartbeat, the point where the global counters are brought
    // up to date (so a /metrics scrape advances mid-run), and a debug
    // event. None of this touches exploration state.
    if (options_.watchdog != nullptr) options_.watchdog->Heartbeat();
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("checker.levels.completed").Increment();
    registry.GetCounter("checker.states.generated")
        .Increment(result_.generated_states -
                   published_generated_.load(std::memory_order_relaxed));
    published_generated_.store(result_.generated_states,
                               std::memory_order_relaxed);
    const uint64_t distinct = fpset_.size();
    registry.GetCounter("checker.states.distinct")
        .Increment(distinct -
                   published_distinct_.load(std::memory_order_relaxed));
    published_distinct_.store(distinct, std::memory_order_relaxed);
    registry.GetCounter("checker.por.actions_slept")
        .Increment(result_.por_slept_actions -
                   published_slept_.load(std::memory_order_relaxed));
    published_slept_.store(result_.por_slept_actions,
                           std::memory_order_relaxed);
    if (events_->enabled()) {
      events_->Emit(
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
      if (!spill_status.ok()) return Finish(spill_status);
    }

    if (result_.graph) {
      // Settle this level's graph discoveries before any early return:
      // a violating level must still land in the graph (identically under
      // every worker count) so liveness and MBTCG runs over violating
      // configs stay deterministic. The seen-set's min-merged order key is
      // the key a serial scan would have discovered the state with.
      result_.graph->SettleLevel([this](uint64_t fp) {
        std::optional<FingerprintSet::Edge> edge = fpset_.GetEdge(fp);
        return edge.has_value() ? edge->order_key : ~uint64_t{0};
      });
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
      return Finish(common::Status::OK());
    }
    if (abort_max_.load(std::memory_order_relaxed)) {
      return Finish(common::Status::ResourceExhausted(
          common::StrCat("exceeded max distinct states (",
                         options_.max_distinct_states, ")")));
    }

    std::vector<LevelEntry> next;
    next.reserve(next_total);
    for (Scratch& s : scratch_) {
      for (LevelEntry& e : s.next) next.push_back(std::move(e));
      s.next.clear();
    }
    if (use_sleep_sets_) {
      // Settle this level's sleep-mask shrinks. The per-record pending
      // mask is an intersection, so it is independent of worker
      // interleaving; SettlePor folds it into the settled mask and
      // reports whether uncovered actions require a re-expansion. Woken
      // states rejoin the frontier at their original depth.
      std::unordered_map<uint64_t, State> wakes;
      for (Scratch& s : scratch_) {
        for (auto& [fp, state] : s.wake_candidates) {
          wakes.try_emplace(fp, std::move(state));
        }
        s.wake_candidates.clear();
      }
      for (auto& [fp, state] : wakes) {
        FingerprintSet::PorSettle settle = fpset_.SettlePor(fp, all_actions_);
        if (settle.wake) {
          next.push_back(LevelEntry{std::move(state), fp, settle.depth,
                                    settle.order_key});
        }
      }
    }
    if (workers_ > 1) {
      // Two workers can race to discover the same state; whoever wins the
      // insert owns the enqueue, but the record's min-merged key is the
      // serial discovery order. Re-key from the settled records so batch
      // order is worker-count-invariant.
      for (LevelEntry& e : next) {
        if (std::optional<FingerprintSet::Edge> edge = fpset_.GetEdge(e.fp)) {
          e.key = edge->order_key;
        }
      }
    }
    // Keys are unique within one level's events, but a POR wake keeps the
    // key of the level it was first discovered in, which can collide
    // numerically with a fresh key — break ties by fingerprint so the
    // batch order stays a pure function of the state graph.
    std::sort(next.begin(), next.end(),
              [](const LevelEntry& a, const LevelEntry& b) {
                return a.key != b.key ? a.key < b.key : a.fp < b.fp;
              });
    if (result_.graph) {
      // Node ids were assigned at SettleLevel; stamp them onto the
      // entries so each expansion can record edges without a map lookup.
      for (LevelEntry& e : next) e.gid = result_.graph->IdOf(e.fp);
    }
    if (spill_enabled_) {
      // Budget eviction first (the level's inserts grew the hot table),
      // then a due checkpoint (evicts the remainder so the manifest names
      // only sealed runs and segments), else plain frontier overflow.
      common::Status status = fpset_.EvictIfOverBudget();
      if (status.ok() && checkpointing_ &&
          CheckpointDue(clock_->NowNanos())) {
        const int64_t ckpt_start_ns = clock_->NowNanos();
        // Quiesce background compaction for the whole manifest section:
        // with no merge in flight the run list is stable, so the manifest
        // names exactly the sealed runs and PurgeSpillRetired cannot
        // delete a file the previous manifest still references.
        fpset_.PauseSpillCompaction();
        status = fpset_.EvictAll();
        if (status.ok()) status = spool->Append(std::move(next));
        if (status.ok()) status = spool->Seal();
        if (status.ok()) {
          CheckpointManifest manifest = MakeManifest(
              result_.generated_states, result_.por_slept_actions,
              result_.diameter);
          manifest.frontiers.push_back(spool->live_segment_files());
          manifest.frontier_total = spool->size();
          status = WriteCheckpointManifest(options_.checkpoint_dir,
                                           manifest, /*durable=*/true);
        }
        if (status.ok()) {
          // The new manifest no longer references compacted-away runs or
          // consumed segments; their files can finally go.
          fpset_.PurgeSpillRetired();
          spool->PurgeConsumed();
          const int64_t ckpt_end_ns = clock_->NowNanos();
          checkpoint_ms_ +=
              static_cast<double>(ckpt_end_ns - ckpt_start_ns) * 1e-6;
          CheckpointWritten(ckpt_end_ns);
          next.clear();  // Everything rides the spool now.
        }
        fpset_.ResumeSpillCompaction();
      } else if (status.ok() && next.size() > frontier_inmem_cap_) {
        // Keep the head chunk hot, spool the (later-ordered) remainder.
        std::vector<LevelEntry> overflow(
            std::make_move_iterator(
                next.begin() +
                static_cast<std::ptrdiff_t>(frontier_inmem_cap_)),
            std::make_move_iterator(next.end()));
        next.resize(frontier_inmem_cap_);
        status = spool->Append(std::move(overflow));
      }
      if (!status.ok()) return Finish(status);
      FlushSpillMetrics(spool->segments_written());
    }
    level = std::move(next);
    next_count_.store(0, std::memory_order_relaxed);
    settle_ns_ += clock_->NowNanos() - pool_end_ns;
  }
  return Finish(common::Status::OK());
}

}  // namespace xmodel::tlax::internal
