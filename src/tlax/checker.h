#ifndef XMODEL_TLAX_CHECKER_H_
#define XMODEL_TLAX_CHECKER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/strings.h"
#include "obs/progress.h"
#include "tlax/spec.h"
#include "tlax/state_graph.h"

namespace xmodel::obs {
class Watchdog;
}  // namespace xmodel::obs

namespace xmodel::tlax {

/// Ignored: every run is level-synchronous; kept only so xbench
/// compiles (xbench/bench_xmodel.cc sets CheckerOptions::exploration).
enum class ExplorationPolicy {
  kLevelSync = 0,
  kRelaxed = 1,
};

/// Largest CheckerOptions::memory_budget_mb whose byte count (`mb << 20`)
/// still fits in 64 bits — the upper bound of --mem-budget-mb.
inline constexpr uint64_t kMaxMemoryBudgetMb = (uint64_t{1} << 44) - 1;

struct CheckerOptions {
  /// Ignored: every run is level-synchronous; kept only so xbench
  /// compiles.
  ExplorationPolicy exploration = ExplorationPolicy::kLevelSync;
  /// Exploration workers: 1 (default) runs the classic single-threaded
  /// BFS (no threads are spawned), 0 means one worker per hardware
  /// thread, N > 1 spawns N - 1 helper threads. Exploration is
  /// level-synchronous — workers drain one BFS level in parallel and
  /// barrier before the next — so counterexamples stay minimal and
  /// `distinct_states`/`diameter`/violation traces are identical across
  /// worker counts. record_graph runs at full parallelism too: node ids
  /// are assigned from the settled discovery order at each level barrier,
  /// so the recorded graph — DOT output included — is byte-identical
  /// across worker counts.
  int num_workers = 1;
  /// Record the full state graph (needed for DOT export / MBTCG / liveness).
  bool record_graph = false;
  /// Abort with ResourceExhausted after this many distinct states. The
  /// cap is tested at the level barrier: a cut run finishes the level that
  /// crossed it, so its counts can pass the cap by up to that level's new
  /// states, and are the same at every worker count.
  uint64_t max_distinct_states = 100'000'000;
  /// Report a violation when a state within the constraint has no successor.
  bool check_deadlock = false;
  /// Interval-driven progress telemetry (TLC's periodic status lines).
  /// Off by default: when null, the checker's only mid-run clock reads are
  /// the worker idle-time profiler's stamps (see
  /// CheckResult::worker_busy_ms). When set,
  /// Report() is called roughly every two seconds (polled every 1024
  /// expansions, so lines can lag on very slow specs) and once at the end
  /// with final_report set.
  obs::ProgressReporter* progress_reporter = nullptr;
  /// Wall-time source for seconds/progress pacing; null = the process
  /// steady clock. Tests inject a FakeMonotonicClock for determinism.
  common::MonotonicClock* clock = nullptr;
  /// Liveness watchdog: when set, the checker heartbeats it at every
  /// level barrier, so /healthz can detect a wedged run (a level that
  /// never completes) from outside. Null = no heartbeats.
  obs::Watchdog* watchdog = nullptr;
  /// Out-of-core checking (the TLC disk-tiered fingerprint set): when
  /// nonzero, the hot fingerprint table is bounded to roughly this many
  /// megabytes; crossing the budget evicts it as a sorted,
  /// delta-compressed run file with a Bloom filter, probed on inserts, so
  /// the checker handles state spaces far larger than RAM with
  /// bit-identical distinct/verdict results. 0 = unlimited (no spilling).
  /// Spilling is incompatible with record_graph (spooled frontier
  /// segments do not carry graph node ids, and the graph holds every
  /// state in memory anyway); with record_graph set the budget is
  /// ignored and CheckResult::spill_notice explains.
  uint64_t memory_budget_mb = 0;
  /// Directory for spill runs and frontier segments. Empty = use
  /// checkpoint_dir when set, else a per-process temp directory removed
  /// at the end of the run.
  std::string spill_dir;
  /// Checkpoint/resume: when set, the run periodically evicts all state
  /// to disk and writes an atomic MANIFEST.json here naming the sealed
  /// runs, frontier segments, and counters — a killed run resumes (see
  /// `resume`) with identical final results. Implies spilling (with or
  /// without a memory budget) and durable (fsync'd) writes.
  std::string checkpoint_dir;
  /// Seconds between checkpoints, each taken at a level barrier. 0 =
  /// checkpoint at every level barrier.
  int64_t checkpoint_every_s = 0;
  /// Resume from checkpoint_dir's manifest instead of seeding from the
  /// spec, at any num_workers. Missing manifest is a clean error; a
  /// corrupt or unknown-schema manifest, run or segment file is
  /// kCorruption.
  bool resume = false;
  /// Frontier entries kept in memory before overflowing to segment
  /// files. 0 = derive from memory_budget_mb (unbounded when no budget).
  uint64_t frontier_inmem_entries = 0;
};

/// The model-checker flags the CLIs share. Each binary accepts a subset,
/// passed to CheckerFlags as a mask of these bits.
enum CheckerFlag : unsigned {
  kWorkersFlag = 1u << 0,          // --workers=N: num_workers, [0, 4096]
  kMemBudgetFlag = 1u << 1,        // --mem-budget-mb=N: [0, 2^44 - 1]
  kSpillDirFlag = 1u << 2,         // --spill-dir=DIR
  kCheckpointDirFlag = 1u << 3,    // --checkpoint-dir=DIR
  kCheckpointEveryFlag = 1u << 4,  // --checkpoint-every-s=N: [0, 604800]
  kResumeFlag = 1u << 5,           // --resume
  kAllCheckerFlags = (1u << 6) - 1,
};

/// The shared checker-flag parser for common::ParseFlags: stores the
/// value of a flag in `accepted` in `*options`. Any other argument is
/// kUnknown; a bad value is kBad with `*options` untouched and the error
/// naming the flag.
common::FlagParser CheckerFlags(unsigned accepted, CheckerOptions* options);

/// A step in a counterexample trace: the action that was taken to reach
/// `state` ("Initial predicate" for the first step, as TLC prints).
struct TraceStep {
  std::string action;
  State state;
};

struct Violation {
  /// Violated invariant name, or "Deadlock".
  std::string kind;
  /// Shortest behavior from an initial state to the violating state.
  std::vector<TraceStep> trace;
};

struct CheckResult {
  common::Status status;
  uint64_t distinct_states = 0;
  /// Number of successor states generated (including duplicates) — TLC's
  /// "states generated".
  uint64_t generated_states = 0;
  /// Length of the longest shortest-path from an initial state (TLC's
  /// "depth of the complete state graph").
  int64_t diameter = 0;
  /// Largest BFS level (frontier batch) observed during the run.
  uint64_t frontier_peak = 0;
  /// Final aggregate load factor of the sharded fingerprint table
  /// (records per slot summed across shards; at most 7/8).
  double fingerprint_load = 0;
  /// TLC's optimistic estimate of the chance that two distinct states
  /// shared a 64-bit fingerprint, so that one was never explored:
  /// distinct * max(generated - distinct, 0) / 2^64.
  double fingerprint_collision_probability = 0;
  /// Exploration workers the run actually used (after resolving
  /// num_workers == 0 to the hardware thread count).
  int workers_used = 1;
  /// BFS levels fully drained (the diameter plus the final empty-frontier
  /// level check; 0 when an initial state already violates).
  uint64_t levels_completed = 0;
  /// Worker idle-time profile, always collected: two clock stamps per
  /// worker per level (drain start/end) charge each worker's wall time to
  /// expansion work vs. waiting at the level barrier, plus one stamp pair
  /// around each level barrier. Purely observational — it never
  /// touches exploration order, so results stay bit-identical across
  /// worker counts. busy is the in-level expansion span; wait is the gap
  /// between a worker finishing its share of a level and the slowest
  /// worker finishing (fork-join imbalance), summed over levels. Also
  /// published as the checker.worker<N>.{busy_ms,barrier_wait_ms} gauges.
  std::vector<double> worker_busy_ms;
  std::vector<double> worker_barrier_wait_ms;
  /// Wall time spent inside level barriers, total: from each level's
  /// drain end to the next level's start.
  double barrier_settle_ms = 0;
  /// Share of worker wall time not spent expanding:
  ///   (sum(wait) + workers*settle) /
  ///   (sum(busy) + sum(wait) + workers*settle);
  /// 0 when the run did no work. Also the checker.idle_fraction gauge.
  double idle_fraction = 0;
  std::optional<Violation> violation;
  /// Present when options.record_graph was set.
  std::shared_ptr<StateGraph> graph;
  double seconds = 0;

  /// Out-of-core tier (see CheckerOptions::memory_budget_mb). Zero /
  /// false when spilling was off or gated off (see spill_notice).
  bool spill_enabled = false;
  uint64_t spill_runs = 0;         // Live run files at the end.
  uint64_t spill_generations = 0;  // Hot-table evictions performed.
  uint64_t spill_records = 0;      // Records resident on disk at the end.
  uint64_t spill_bytes = 0;        // Cumulative run bytes written.
  uint64_t spill_compactions = 0;
  double spill_probe_ms = 0;       // Disk probe time (past the Blooms).
  double spill_merge_ms = 0;       // Compaction merge time.
  uint64_t frontier_segments = 0;  // Frontier segment files written.
  uint64_t checkpoints_written = 0;
  /// True when this run restored state from a checkpoint manifest.
  bool resumed = false;
  /// Set when spilling/checkpointing was requested but gated off by
  /// record_graph.
  std::string spill_notice;

  bool ok() const { return status.ok() && !violation.has_value(); }
};

/// Breadth-first explicit-state model checker, the TLC stand-in.
///
/// Explores all states reachable from the spec's initial states through its
/// actions, restricted to the spec's state constraint, checking every
/// invariant on every state within the constraint. On violation, returns the
/// shortest counterexample behavior. BFS order guarantees minimal
/// counterexamples, like TLC's default mode.
///
/// Exploration is level-synchronous and runs on
/// CheckerOptions::num_workers threads over a shared sharded fingerprint
/// table (see tlax/fpset.h): the seen-set stores 64-bit fingerprints plus
/// compact predecessor records instead of full states, and traces are
/// rebuilt by replaying actions along the predecessor chain. When a level
/// contains a violation the whole level is still drained and the
/// candidate with the smallest discovery-order key wins, so results are
/// bit-identical across worker counts. See DESIGN.md "Parallel checking"
/// and "One exploration order".
class ModelChecker {
 public:
  explicit ModelChecker(CheckerOptions options = {}) : options_(options) {}

  /// Explores `spec`. Every run also publishes its counters and gauges
  /// (the checker.* family) to obs::MetricsRegistry::Global(): at each
  /// level barrier, and the remainder at the end, so the totals reconcile
  /// exactly with the CheckResult.
  CheckResult Check(const Spec& spec) const;

 private:
  CheckerOptions options_;
};

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_CHECKER_H_
