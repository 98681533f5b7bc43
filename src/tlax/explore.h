#ifndef XMODEL_TLAX_EXPLORE_H_
#define XMODEL_TLAX_EXPLORE_H_

// The exploration engine behind ModelChecker::Check — not part of the
// public checker API. One Engine per Check() call runs a
// level-synchronous BFS: workers drain one frontier level and barrier,
// so every result field is bit-identical across worker counts.
//
//   engine.cc        — construction, seeding, expansion, invariant
//                      checks, trace rebuild, checkpoint manifests,
//                      and the run record's progress lines and metrics.
//   explore_level.cc — the level loop and its barrier.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/status.h"
#include "obs/progress.h"
#include "tlax/checker.h"
#include "tlax/checkpoint.h"
#include "tlax/fpset.h"
#include "tlax/spec.h"
#include "tlax/state_graph.h"

namespace xmodel::obs {
class EventLog;
}  // namespace xmodel::obs

namespace xmodel::tlax::internal {

class FrontierSpool;  // tlax/frontier_spill.h (includes this header).

// How many frontier expansions happen between wall-clock polls when a
// progress reporter is attached. Large enough that the clock read is
// invisible in the states/sec budget, small enough that progress lines
// land within ~a second of their nominal interval on realistic specs.
constexpr uint32_t kProgressPollExpansions = 1024;

// Wall time between progress lines, checked at each poll.
constexpr int64_t kProgressIntervalMs = 2000;

// Expansion batch between watchdog heartbeats: a level can take
// arbitrarily long, so heartbeating only at its barrier reads as a stall
// under a tight --stall-timeout-ms even though workers are making steady
// progress.
constexpr uint32_t kHeartbeatBatchEntries = 1024;

// Successors a worker stages before FlushStaged inserts them with one
// FingerprintSet::InsertBatch (one lock per touched shard, and one
// sorted sweep of the spill tier's runs for the misses). Roughly a run
// block's worth of keys, so that sweep decodes each touched block about
// once.
constexpr size_t kInsertBatch = 256;

// One unit of frontier work. The level batches own the full states (the
// fingerprint table does not keep them); `key` is the discovery-order key
// that makes batch order — and therefore every downstream key — a pure
// function of the state graph, independent of worker count.
struct LevelEntry {
  State state;
  uint64_t fp = 0;
  int64_t depth = 0;
  uint64_t key = 0;
  // record_graph: the settled graph id of this state, filled when the
  // level is built (seeds at registration, later levels at the barrier).
  uint32_t gid = StateGraph::kNoId;
};

// A violation observed while the frontier drains. The violating level is
// always completed before a winner is chosen (the smallest key), so the
// choice is scheduling-independent.
struct CandidateViolation {
  uint64_t key = 0;
  std::string kind;
  uint64_t fp = 0;
  State state;
};

// A level, or the in-memory part of one: `order` lists its entries in
// settled order, pointing into `storage`, which the level owns.
struct Level {
  std::vector<std::vector<LevelEntry>> storage;
  std::vector<LevelEntry*> order;

  // A level of `entries`, in their given order.
  static Level Of(std::vector<LevelEntry> entries);
  size_t size() const { return order.size(); }
};

// Orders the entries of `runs` (in any order within and across runs) by
// (key, fp), the settled order of a level: the result points at them in
// the order a sort of their concatenation would leave them. Each run's
// sort is one task on `pool`, and so is each worker's equal share of the
// merge.
std::vector<LevelEntry*> MergeSettledRuns(
    std::vector<std::vector<LevelEntry>>& runs, common::WorkerPool* pool);

// Discovery-order key of successor `ordinal` of action `ai` at the
// parent in level position `parent_pos` — the order a serial scan visits
// these events. A parent's deadlock event sorts after all its successor
// events (the serial checker reports it after checking them) and before
// the next parent's.
inline uint64_t EventKey(size_t parent_pos, uint16_t ai, size_t ordinal) {
  if (ordinal > 0xFFFE) ordinal = 0xFFFE;
  return (static_cast<uint64_t>(parent_pos) << 32) |
         (static_cast<uint64_t>(ai) << 16) | ordinal;
}

inline uint64_t DeadlockKey(size_t parent_pos) {
  return (static_cast<uint64_t>(parent_pos) << 32) | 0xFFFFFFFFull;
}

// The level-synchronous exploration engine. Workers pull parent entries
// from the current level via an atomic cursor, push discoveries into
// worker-local buffers, and barrier; the barrier merges tallies, settles
// the next level's order (POR SettlePor, graph node ids), and handles
// violations/limits. Every barrier step runs on the worker pool, which is
// otherwise idle there.
class Engine {
 public:
  Engine(const CheckerOptions& options, const Spec& spec);
  ~Engine();

  CheckResult Run();

 private:
  // Per-worker accumulators, merged and cleared at each level barrier
  // (expanded spans the whole run — it feeds worker-balance counters).
  // Cache-line aligned: workers write their own Scratch on every
  // expansion, and adjacent ones must not share a line.
  struct alignas(64) Scratch {
    std::vector<LevelEntry> next;
    std::vector<CandidateViolation> candidates;
    std::vector<State> successors;
    // POR: states whose pending sleep mask shrank this level, with their
    // full state for a potential wake re-enqueue. Settled at the barrier.
    std::unordered_map<uint64_t, State> wake_candidates;
    // Successors awaiting FlushStaged, in discovery order: staged_items[i]
    // inserts staged_states[i]. The rest is reusable flush scratch.
    std::vector<State> staged_states;
    std::vector<FpInsertItem> staged_items;
    std::vector<FpInsert> staged_results;
    uint64_t generated = 0;
    uint64_t slept = 0;
    uint64_t expanded = 0;
    int64_t diameter = 0;
    // Worker idle-time profile (CheckResult::worker_busy_ms): wall time
    // spent inside DrainLevel vs. waiting at the fork-join barrier for the
    // slowest worker, plus the stamp the wait is computed from.
    int64_t busy_ns = 0;
    int64_t barrier_wait_ns = 0;
    int64_t drain_end_ns = 0;
  };

  // Run() preamble: stamps the start, resolves progress plumbing, emits
  // run.started, builds the POR commuting masks and the graph recorder.
  void StartRun();

  // Serial: canonicalizes and inserts the spec's initial states, checking
  // invariants on the constrained ones. Returns false when an initial
  // state already violates (result_.violation is set).
  bool SeedInitial(std::vector<LevelEntry>* level);

  // Drains one in-memory batch of the current level. `base` is the
  // batch's global position within the level, so EventKey/DeadlockKey
  // stay level-global — and with them every downstream key — whether or
  // not the level was partially spooled to disk.
  void DrainLevel(const std::vector<LevelEntry*>& order, size_t base,
                  int worker);
  // Expands `entry`: stages each successor in s, flushing whenever
  // kInsertBatch are staged (so the staging buffers never grow past
  // that), and records graph edges and deadlock candidates.
  void ProcessEntry(const LevelEntry& entry, size_t pos, Scratch& s,
                    int worker);
  // Admits a state the fingerprint set reported new: checks invariants,
  // and enqueues it into s.next when it is within the constraint.
  void AdmitNew(State&& state, uint64_t fp, int64_t depth, uint64_t key,
                Scratch& s);
  void CheckInvariants(const State& state, uint64_t fp, uint64_t key,
                       Scratch& s);

  // Inserts the staged successors with one InsertBatch, then applies the
  // results in staged order: new states go through AdmitNew, POR shrinks
  // into s.wake_candidates.
  void FlushStaged(Scratch& s);

  // Barrier: the next level in settled order — every worker's run,
  // merged. The runs become the level's storage.
  Level AssembleNext();
  // Barrier (record_graph): numbers `next` as the level's new graph nodes,
  // stamps their ids on the entries, and resolves the level's edges.
  void SettleGraph(Level& next);

  // Rebuilds the counterexample behavior ending at `end_state` by walking
  // the predecessor-fingerprint chain and replaying the recorded actions
  // forward from the matching initial state.
  std::vector<TraceStep> BuildTrace(uint64_t end_fp, const State& end_state);

  void PollProgress(size_t level_size, size_t pos);
  // A progress line from result_; a mid-level one (worker 0 polls) adds
  // the tallies no barrier has merged yet.
  obs::CheckerProgress Progress(int64_t now_ns, uint64_t frontier,
                                bool final_report) const;
  // Refreshes result_'s distinct count and out-of-core counts.
  void SyncResult();
  // Raises each checker.* counter by what result_ gained since published_
  // and sets the gauges; at every barrier, and from Finish (`run_ended`:
  // plus the end-of-run metrics).
  void Publish(bool run_ended);
  CheckResult Finish(common::Status status);

  // --- Out-of-core support (spill_enabled_ only) ---

  // Whether a checkpoint is due at this level barrier.
  bool CheckpointDue(int64_t now_ns) const;
  // Stamps the next checkpoint deadline after a successful write.
  void CheckpointWritten(int64_t now_ns);
  // The manifest of a checkpoint at this barrier: the run counters, the
  // sealed runs, the initial states and the spool's sealed segments.
  CheckpointManifest MakeManifest();
  // --resume: reads and validates the manifest, adopts the sealed runs
  // and frontier segments, restores the counters and the initial states,
  // and deletes the run and segment files the manifest does not name.
  common::Status Resume();
  // Removes the per-process temp spill dir (no-op when the dir was
  // user-provided). Called after the last stats read.
  void CleanupSpillDir();

  static FingerprintSet::Options FpOptions(bool por,
                                           const std::string& spill_dir,
                                           uint64_t memory_budget_bytes,
                                           bool checkpointing) {
    FingerprintSet::Options o;
    o.track_por = por;
    o.spill_dir = spill_dir;  // Empty when spilling is off or gated off.
    o.memory_budget_bytes = memory_budget_bytes;
    o.spill_durable = checkpointing;
    return o;
  }

  const CheckerOptions& options_;
  const Spec& spec_;
  const std::vector<Action>& actions_;
  const std::vector<Invariant>& invariants_;
  common::MonotonicClock* const clock_;
  obs::EventLog* const events_;
  const int workers_;
  // Sleep-set partial-order reduction (Godefroid): when expanding a
  // state, actions in its sleep set are skipped; a successor reached via
  // action a sleeps every action that commutes with a and was either
  // already slept or explored earlier at the parent. Revisiting a state
  // with a smaller sleep set shrinks the stored set (intersection) and
  // re-expands ONLY the newly woken actions (the per-record `done` mask
  // remembers what already ran), so every reachable state is eventually
  // explored with every non-redundant action — the reduction removes
  // redundant interleavings, not reachable states. Shrinks are
  // two-phase: mid-level revisits only narrow a pending mask, and the
  // level barrier settles it and re-enqueues woken states (fpset.h
  // SettlePor), so every counter and trace is worker-count-invariant
  // under POR too. Soundness requires the independence relation to
  // respect the state constraint (see analysis::ComputeIndependence /
  // RefineIndependence). Disabled under record_graph: the recorded graph
  // must carry every edge for MBTCG/liveness.
  const bool use_sleep_sets_;
  const uint64_t all_actions_;
  // Out-of-core tier, resolved after gating (see CheckerOptions::
  // memory_budget_mb): spilling runs only without POR / record_graph.
  // checkpointing_ additionally requires checkpoint_dir.
  const bool spill_enabled_;
  const bool checkpointing_;
  const std::string spill_dir_;  // Empty when spilling is off.
  const bool spill_dir_is_temp_;
  // In-memory frontier bound before segment-file overflow (SIZE_MAX =
  // unbounded; only reachable with checkpointing but no budget).
  const size_t frontier_inmem_cap_;
  FingerprintSet fpset_;
  common::WorkerPool pool_;
  std::vector<Scratch> scratch_;
  // spill_enabled_ only: the settled level beyond the in-memory head, as
  // sealed segment files replayed FIFO.
  std::unique_ptr<FrontierSpool> spool_;
  std::vector<uint64_t> commuting_mask_;  // Per action: bits of commuters.
  std::unordered_map<uint64_t, State> initial_by_fp_;  // Replay anchors.

  // The run's one record, and the part of it already added to the
  // checker.* counters (only the barrier thread and Finish touch that).
  // --resume starts published_'s levels and checkpoints at the manifest's.
  CheckResult result_;
  CheckResult published_;
  int64_t start_ns_ = 0;
  // Barrier wall time, run total: from the end of each drain to the start
  // of the next level (checker.barrier.settle_ms), and its steps
  // (checker.barrier.<step>_ms): building the sorted next level,
  // numbering its graph nodes, eviction, and frontier spooling.
  int64_t settle_ns_ = 0;
  int64_t assemble_ns_ = 0;
  int64_t graph_ns_ = 0;
  int64_t evict_ns_ = 0;
  int64_t spool_ns_ = 0;
  Value::InternStats intern_at_start_;
  double checkpoint_ms_ = 0;
  int64_t next_checkpoint_ns_ = 0;

  // Level-scoped shared state.
  std::atomic<size_t> next_index_{0};  // Parent-entry work cursor.

  // Progress plumbing. Only worker 0 reads the clock and reports; the
  // other workers flush per-parent deltas into the two relaxed atomics so
  // its lines see the whole fleet's progress.
  bool report_progress_ = false;
  int64_t last_report_ns_ = 0;
  uint64_t last_report_generated_ = 0;
  uint32_t poll_countdown_ = kProgressPollExpansions;
  std::atomic<uint64_t> generated_level_{0};
  std::atomic<uint64_t> next_count_{0};
};

}  // namespace xmodel::tlax::internal

#endif  // XMODEL_TLAX_EXPLORE_H_
