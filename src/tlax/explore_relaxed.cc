// The relaxed work-stealing exploration policy: per-worker deques, no
// level barriers. Each worker drains its own deque from the front,
// steals half a victim's entries from the back when empty, and spins
// when the whole frontier is in flight; termination is the global
// in-flight counter reaching zero.
//
// Invariants this file is responsible for (see DESIGN.md "Exploration
// policies"): the set of distinct states — and therefore the violation
// verdict — is identical to level-sync at any worker count, because the
// fingerprint table admits each state exactly once and invariants run on
// every admitted state. A violating run drains the ENTIRE reachable
// space and then picks the smallest (fingerprint, kind) candidate, so
// the reported verdict is schedule-independent too. Everything
// order-dependent — diameter (first-discovery depths), frontier peak
// (sampled in-flight count), the counterexample trace, and POR
// slept/generated tallies — is approximate and flagged as such in
// CheckResult::order_fields_approximate.

#include <algorithm>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "tlax/explore.h"
#include "tlax/frontier_spill.h"
#include "tlax/state_codec.h"

namespace xmodel::tlax::internal {

// Out-of-line: explore.h only forward-declares FrontierSpool, so every
// member that can destroy spools_ must be instantiated here where the
// type is complete.
RelaxedEngine::RelaxedEngine(const CheckerOptions& options, const Spec& spec)
    : EngineBase(options, spec, ExplorationPolicy::kRelaxed) {}

RelaxedEngine::~RelaxedEngine() = default;

namespace {

// Relaxed runs keep at most one violation candidate per worker — the
// smallest (fingerprint, kind) — since the frontier is drained to
// completion and the candidate count on a violating spec is otherwise
// unbounded. The same comparator picks the global winner at the end.
bool CandidateLess(const CandidateViolation& a, const CandidateViolation& b) {
  return a.fp != b.fp ? a.fp < b.fp : a.kind < b.kind;
}

// Keeps only the CandidateLess-smallest of `candidates`.
void KeepSmallestCandidate(std::vector<CandidateViolation>* candidates) {
  if (candidates->size() <= 1) return;
  CandidateViolation best =
      *std::min_element(candidates->begin(), candidates->end(), CandidateLess);
  candidates->clear();
  candidates->push_back(std::move(best));
}

}  // namespace

size_t RelaxedEngine::PopOwn(int worker, std::vector<LevelEntry>* batch) {
  WorkerDeque& own = *deques_[static_cast<size_t>(worker)];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    const size_t take = std::min(kRelaxedBatchEntries, own.entries.size());
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(own.entries.front()));
      own.entries.pop_front();
    }
    if (take > 0) return take;
  }
  // Deque dry: reload from this worker's spill spool. The spool has a
  // single owner (this worker; the checkpointer only touches it while
  // every worker is parked), so no lock is needed.
  FrontierSpool* spool =
      spools_.empty() ? nullptr : spools_[static_cast<size_t>(worker)].get();
  if (spool == nullptr || spool->empty()) return 0;
  std::vector<LevelEntry> reload;
  common::Status status = spool->PopBatch(&reload);
  if (!status.ok()) {
    RecordIoError(status);
    return 0;
  }
  const size_t take = std::min(kRelaxedBatchEntries, reload.size());
  for (size_t i = 0; i < take; ++i) {
    batch->push_back(std::move(reload[i]));
  }
  if (take < reload.size()) {
    std::lock_guard<std::mutex> lock(own.mu);
    for (size_t i = take; i < reload.size(); ++i) {
      own.entries.push_back(std::move(reload[i]));
    }
  }
  return take;
}

size_t RelaxedEngine::Steal(int worker, std::vector<LevelEntry>* batch) {
  for (int offset = 1; offset < workers_; ++offset) {
    const int victim = (worker + offset) % workers_;
    WorkerDeque& dq = *deques_[static_cast<size_t>(victim)];
    std::lock_guard<std::mutex> lock(dq.mu);
    if (dq.entries.empty()) continue;
    // Take half the victim's backlog (its coldest entries, from the
    // back), capped at one batch.
    const size_t take = std::min((dq.entries.size() + 1) / 2,
                                 kRelaxedBatchEntries);
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(dq.entries.back()));
      dq.entries.pop_back();
    }
    return take;
  }
  return 0;
}

void RelaxedEngine::PushDiscoveries(int worker, Scratch& s) {
  // Count the children into the in-flight total BEFORE the caller
  // retires their parent: the counter can never dip to zero while
  // undiscovered work exists, which is what makes pending_ == 0 a safe
  // termination signal. Spooled entries stay counted too — they come
  // back through PopOwn before the deque reads empty.
  pending_.fetch_add(s.next.size(), std::memory_order_release);
  WorkerDeque& own = *deques_[static_cast<size_t>(worker)];
  FrontierSpool* spool =
      spools_.empty() ? nullptr : spools_[static_cast<size_t>(worker)].get();
  std::vector<LevelEntry> overflow;
  {
    std::lock_guard<std::mutex> lock(own.mu);
    for (LevelEntry& e : s.next) {
      if (spool != nullptr && own.entries.size() >= per_worker_cap_) {
        overflow.push_back(std::move(e));
      } else {
        own.entries.push_back(std::move(e));
      }
    }
  }
  s.next.clear();
  if (!overflow.empty()) {
    common::Status status = spool->Append(std::move(overflow));
    if (!status.ok()) RecordIoError(status);
  }
}

void RelaxedEngine::RecordIoError(const common::Status& status) {
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    if (io_status_.ok()) io_status_ = status;
  }
  abort_io_.store(true, std::memory_order_relaxed);
}

void RelaxedEngine::MaybeParkForCheckpoint() {
  if (!checkpointing_) return;
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  if (!ckpt_requested_) return;
  const uint64_t generation = ckpt_generation_;
  ++ckpt_parked_;
  if (ckpt_parked_ == active_workers_) {
    // Last one in performs the checkpoint: every other active worker is
    // parked between batches, so deques, spools, and scratch tallies are
    // exclusively ours.
    DoCheckpointLocked();
    ckpt_requested_ = false;
    ckpt_parked_ = 0;
    ++ckpt_generation_;
    lock.unlock();
    ckpt_cv_.notify_all();
    return;
  }
  ckpt_cv_.wait(lock, [&] { return ckpt_generation_ != generation; });
}

void RelaxedEngine::ExitWorker() {
  if (!checkpointing_) return;
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  --active_workers_;
  if (!ckpt_requested_) return;
  if (active_workers_ == 0) {
    // Everyone has left; cancel — Run()'s serial epilogue owns the state.
    ckpt_requested_ = false;
    ckpt_parked_ = 0;
    ++ckpt_generation_;
    lock.unlock();
    ckpt_cv_.notify_all();
    return;
  }
  if (ckpt_parked_ == active_workers_) {
    // The parked fleet was waiting for this (now exiting) worker; it
    // still exists and holds the lock, so it performs the checkpoint.
    DoCheckpointLocked();
    ckpt_requested_ = false;
    ckpt_parked_ = 0;
    ++ckpt_generation_;
    lock.unlock();
    ckpt_cv_.notify_all();
  }
}

void RelaxedEngine::DoCheckpointLocked() {
  // The flush that raised an abort drops the rest of its staged
  // successors, which the seen-set already holds but no deque ever will:
  // deques plus spools are no longer a consistent cut. Keep the last
  // manifest, which was taken before the abort.
  if (abort_max_.load(std::memory_order_relaxed) ||
      abort_io_.load(std::memory_order_relaxed)) {
    return;
  }
  const int64_t ckpt_start_ns = clock_->NowNanos();
  common::Status status = common::Status::OK();
  // Drain every deque into its worker's spool and seal, so the manifest
  // names only sealed segment files; with no batch in flight, the spool
  // totals are exactly the unretired frontier (pending_).
  uint64_t frontier_total = 0;
  for (int w = 0; w < workers_ && status.ok(); ++w) {
    WorkerDeque& dq = *deques_[static_cast<size_t>(w)];
    std::vector<LevelEntry> drained;
    {
      std::lock_guard<std::mutex> lock(dq.mu);
      drained.assign(std::make_move_iterator(dq.entries.begin()),
                     std::make_move_iterator(dq.entries.end()));
      dq.entries.clear();
    }
    FrontierSpool& spool = *spools_[static_cast<size_t>(w)];
    if (!drained.empty()) status = spool.Append(std::move(drained));
    if (status.ok()) status = spool.Seal();
    frontier_total += spool.size();
  }
  if (status.ok()) status = fpset_.EvictAll();
  if (status.ok()) {
    uint64_t generated = result_.generated_states;
    uint64_t slept = result_.por_slept_actions;
    int64_t diameter = result_.diameter;
    for (const Scratch& s : scratch_) {
      generated += s.generated;
      slept += s.slept;
      if (s.diameter > diameter) diameter = s.diameter;
    }
    CheckpointManifest manifest = MakeManifest(generated, slept, diameter);
    manifest.frontier_total = frontier_total;
    for (int w = 0; w < workers_; ++w) {
      manifest.frontiers.push_back(
          spools_[static_cast<size_t>(w)]->live_segment_files());
    }
    for (const Scratch& s : scratch_) {
      for (const CandidateViolation& c : s.candidates) {
        CheckpointManifest::Candidate cand;
        cand.kind = c.kind;
        cand.fp = c.fp;
        cand.key = c.key;
        EncodeState(c.state, &cand.state);
        manifest.candidates.push_back(std::move(cand));
      }
    }
    status = WriteCheckpointManifest(options_.checkpoint_dir, manifest,
                                     /*durable=*/true);
  }
  if (!status.ok()) {
    RecordIoError(status);
    return;
  }
  fpset_.PurgeSpillRetired();
  uint64_t segments = 0;
  for (const std::unique_ptr<FrontierSpool>& spool : spools_) {
    spool->PurgeConsumed();
    segments += spool->segments_written();
  }
  const int64_t ckpt_end_ns = clock_->NowNanos();
  checkpoint_ms_ +=
      static_cast<double>(ckpt_end_ns - ckpt_start_ns) * 1e-6;
  CheckpointWritten(ckpt_end_ns);
  FlushSpillMetrics(segments);
}

void RelaxedEngine::WorkerLoop(int worker) {
  Scratch& s = scratch_[static_cast<size_t>(worker)];
  int64_t last_stamp = clock_->NowNanos();
  // Charges the wall time since the last stamp to one of the worker's
  // three modes (busy / steal / starve); stamps happen only at mode
  // transitions, not per entry.
  auto charge = [&](int64_t Scratch::* field) {
    const int64_t now = clock_->NowNanos();
    s.*field += now - last_stamp;
    last_stamp = now;
  };

  std::vector<LevelEntry> batch;
  batch.reserve(kRelaxedBatchEntries);
  uint64_t flushed_generated = 0;
  uint64_t flushed_slept = 0;
  uint64_t local_peak = 0;
  // Worker 0 flushes the checker.spill.* families live every few
  // batches (not every batch — the flush is a dozen registry lookups).
  constexpr uint32_t kSpillFlushBatches = 8;
  uint32_t spill_flush_countdown = kSpillFlushBatches;
  for (;;) {
    if (abort_max_.load(std::memory_order_relaxed) ||
        abort_io_.load(std::memory_order_relaxed)) {
      break;
    }
    batch.clear();
    if (PopOwn(worker, &batch) == 0) {
      if (Steal(worker, &batch) == 0) {
        charge(&Scratch::steal_ns);
        if (pending_.load(std::memory_order_acquire) == 0) break;
        // The whole frontier is in some worker's hands; spin politely
        // until children land in a deque or the counter drains. A
        // starving worker must still honor checkpoint rendezvous, or a
        // due checkpoint would park the rest of the fleet forever.
        MaybeParkForCheckpoint();
        std::this_thread::yield();
        charge(&Scratch::starve_ns);
        continue;
      }
      ++s.steals;
      charge(&Scratch::steal_ns);
    }

    for (const LevelEntry& entry : batch) {
      ProcessEntry(entry, 0, s, worker);
      if (!s.next.empty()) PushDiscoveries(worker, s);
    }
    FlushStaged(s);
    if (!s.next.empty()) PushDiscoveries(worker, s);
    KeepSmallestCandidate(&s.candidates);
    // Children stay staged until the flush above, so the grab's parents
    // retire only now: children are counted into pending_ before their
    // parents leave it.
    pending_.fetch_sub(batch.size(), std::memory_order_acq_rel);
    const uint64_t in_flight = pending_.load(std::memory_order_relaxed);
    if (in_flight > local_peak) local_peak = in_flight;
    charge(&Scratch::busy_ns);

    // Batch boundary: watchdog heartbeat (there are no level barriers to
    // heartbeat at), live-counter flush so a mid-run /metrics scrape
    // advances, and — on worker 0 — a progress line when due.
    if (options_.watchdog != nullptr) options_.watchdog->Heartbeat();
    const uint64_t gen_delta = s.generated - flushed_generated;
    if (gen_delta != 0) {
      generated_level_.fetch_add(gen_delta, std::memory_order_relaxed);
      live_generated_->Increment(gen_delta);
      published_generated_.fetch_add(gen_delta, std::memory_order_relaxed);
      flushed_generated = s.generated;
    }
    if (s.slept != flushed_slept) {
      live_slept_->Increment(s.slept - flushed_slept);
      published_slept_.fetch_add(s.slept - flushed_slept,
                                 std::memory_order_relaxed);
      flushed_slept = s.slept;
    }
    if (worker == 0) {
      // fpset_.size() is monotone and only worker 0 publishes it, so the
      // counter advances without racing another flusher.
      const uint64_t distinct = fpset_.size();
      const uint64_t already =
          published_distinct_.load(std::memory_order_relaxed);
      if (distinct > already) {
        live_distinct_->Increment(distinct - already);
        published_distinct_.store(distinct, std::memory_order_relaxed);
      }
      if (report_progress_) {
        const int64_t now_ns = clock_->NowNanos();
        if (now_ns - last_report_ns_ >= interval_ns_) {
          obs::CheckerProgress p = LiveSnapshot(
              now_ns, pending_.load(std::memory_order_relaxed));
          options_.progress_reporter->Report(p);
          last_report_ns_ = now_ns;
          last_report_generated_ = p.generated_states;
        }
      }
      if (spill_enabled_ && --spill_flush_countdown == 0) {
        spill_flush_countdown = kSpillFlushBatches;
        // Live probe/merge/compaction telemetry between
        // checkpoints. Single-writer discipline holds: the checkpoint
        // flush runs only while every active worker — including this
        // one — is parked under ckpt_mu_.
        uint64_t segments = 0;
        for (const std::unique_ptr<FrontierSpool>& spool : spools_) {
          segments += spool->segments_written();
        }
        FlushSpillMetrics(segments);
      }
      if (spill_enabled_ && checkpointing_ &&
          CheckpointDue(clock_->NowNanos())) {
        // Worker 0 owns the checkpoint cadence; the others rendezvous.
        std::lock_guard<std::mutex> lock(ckpt_mu_);
        if (!ckpt_requested_) {
          ckpt_requested_ = true;
          ckpt_cv_.notify_all();
        }
      }
    }
    if (spill_enabled_) {
      // Every worker enforces the memory budget at its own batch
      // boundary: with a single enforcer the hot table can overshoot
      // the budget by a worker-count factor between that worker's
      // turns. The under-budget early-out is one relaxed atomic load,
      // and concurrent evictors serialize inside EvictAll.
      common::Status status = fpset_.EvictIfOverBudget();
      if (status.ok()) status = fpset_.spill_status();
      if (!status.ok()) RecordIoError(status);
    }
    MaybeParkForCheckpoint();
  }
  ExitWorker();

  // Merge this worker's peak sample; tallies merge serially after join.
  uint64_t seen = frontier_peak_.load(std::memory_order_relaxed);
  while (local_peak > seen &&
         !frontier_peak_.compare_exchange_weak(seen, local_peak,
                                               std::memory_order_relaxed)) {
  }
}

CheckResult RelaxedEngine::Run() {
  StartRun();

  deques_.reserve(static_cast<size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  if (spill_enabled_) {
    // One spool per worker deque, distinguished by file prefix. The
    // per-worker in-memory cap splits the global frontier budget.
    per_worker_cap_ = std::max(
        2 * kRelaxedBatchEntries,
        frontier_inmem_cap_ / static_cast<size_t>(workers_));
    spools_.reserve(static_cast<size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      FrontierSpool::Options spool_options;
      spool_options.dir = spill_dir_;
      spool_options.prefix = common::StrCat("seg-w", w);
      spool_options.durable = checkpointing_;
      spool_options.defer_deletes = checkpointing_;
      // Segment granularity tracks the in-memory cap: a reload pops one
      // segment, so segments larger than the cap would defeat it.
      spool_options.segment_entries =
          std::min(spool_options.segment_entries, per_worker_cap_);
      spools_.push_back(
          std::make_unique<FrontierSpool>(std::move(spool_options)));
    }
  }
  active_workers_ = workers_;

  std::vector<LevelEntry> seeds;
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
    if (manifest.workers != workers_) {
      // Frontier segments are per worker (spool prefixes must match);
      // relaxed resume needs the same fleet size the checkpoint had.
      return Finish(common::Status::InvalidArgument(common::StrCat(
          "--resume: relaxed checkpoint was written with ",
          manifest.workers, " workers; rerun with --workers=",
          manifest.workers)));
    }
    uint64_t restored = 0;
    for (int w = 0; w < workers_; ++w) {
      if (static_cast<size_t>(w) >= manifest.frontiers.size()) break;
      uint64_t adopted = 0;
      status = spools_[static_cast<size_t>(w)]->AdoptSegments(
          manifest.frontiers[static_cast<size_t>(w)], &adopted);
      if (!status.ok()) return Finish(status);
      restored += adopted;
    }
    for (const CheckpointManifest::Candidate& c : manifest.candidates) {
      State state;
      size_t pos = 0;
      status = DecodeState(c.state, &pos, &state);
      if (!status.ok()) return Finish(status);
      scratch_[0].candidates.push_back(
          CandidateViolation{c.key, c.kind, c.fp, std::move(state)});
    }
    KeepSmallestCandidate(&scratch_[0].candidates);
    pending_.store(restored, std::memory_order_relaxed);
    frontier_peak_.store(0, std::memory_order_relaxed);
  } else {
    if (!SeedInitial(&seeds)) return Finish(common::Status::OK());
    for (size_t i = 0; i < seeds.size(); ++i) {
      deques_[i % static_cast<size_t>(workers_)]->entries.push_back(
          std::move(seeds[i]));
    }
    pending_.store(seeds.size(), std::memory_order_relaxed);
    frontier_peak_.store(seeds.size(), std::memory_order_relaxed);
  }

  auto& registry = obs::MetricsRegistry::Global();
  live_generated_ = &registry.GetCounter("checker.states.generated");
  live_distinct_ = &registry.GetCounter("checker.states.distinct");
  live_slept_ = &registry.GetCounter("checker.por.actions_slept");

  pool_.Run([this](int worker) { WorkerLoop(worker); });

  std::vector<CandidateViolation> candidates;
  for (Scratch& s : scratch_) {
    result_.generated_states += s.generated;
    result_.por_slept_actions += s.slept;
    if (s.diameter > result_.diameter) result_.diameter = s.diameter;
    for (CandidateViolation& c : s.candidates) {
      candidates.push_back(std::move(c));
    }
    s.candidates.clear();
  }
  result_.frontier_peak = std::max(
      result_.frontier_peak, frontier_peak_.load(std::memory_order_relaxed));

  if (spill_enabled_) {
    uint64_t segments = 0;
    for (const std::unique_ptr<FrontierSpool>& spool : spools_) {
      segments += spool->segments_written();
    }
    frontier_segments_total_ = segments;
    common::Status status = fpset_.spill_status();
    if (status.ok() && abort_io_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(io_mu_);
      status = io_status_;
    }
    if (!status.ok()) return Finish(status);
  }

  if (!candidates.empty()) {
    // The frontier was drained to completion, so the candidate set is a
    // pure function of the reachable states — the smallest (fp, kind)
    // winner, and with it the verdict, is schedule-independent. Only the
    // trace built from the (approximate) predecessor chain varies.
    const CandidateViolation& best = *std::min_element(
        candidates.begin(), candidates.end(), CandidateLess);
    result_.violation =
        Violation{best.kind, BuildTrace(best.fp, best.state)};
    return Finish(common::Status::OK());
  }
  if (abort_max_.load(std::memory_order_relaxed)) {
    return Finish(common::Status::ResourceExhausted(
        common::StrCat("exceeded max distinct states (",
                       options_.max_distinct_states, ")")));
  }
  return Finish(common::Status::OK());
}

}  // namespace xmodel::tlax::internal
