// The exploration engine's per-state work (see tlax/explore.h):
// construction, seeding, expansion, invariant checks, trace rebuild,
// checkpoint manifests, and the run record's progress lines and metrics.
// The level loop and its barrier live in explore_level.cc.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/fileio.h"
#include "common/strings.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "tlax/explore.h"
#include "tlax/frontier_spill.h"
#include "tlax/state_codec.h"

namespace xmodel::tlax::internal {

namespace {

// Out-of-core gating (see CheckerOptions::memory_budget_mb): any of the
// three knobs requests spilling. record_graph vetoes it because spooled
// frontier segments do not carry LevelEntry::gid, and its graph holds
// every state in memory anyway.
bool SpillRequested(const CheckerOptions& o) {
  return o.memory_budget_mb > 0 || !o.checkpoint_dir.empty() ||
         !o.spill_dir.empty();
}

std::string ResolveSpillDir(const CheckerOptions& o, bool enabled) {
  if (!enabled) return std::string();
  if (!o.spill_dir.empty()) return o.spill_dir;
  if (!o.checkpoint_dir.empty()) return o.checkpoint_dir;
  const char* tmp = std::getenv("TMPDIR");
  return common::StrCat(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp",
                        "/xmodel-spill-", static_cast<long>(::getpid()));
}

// A frontier entry carries a full State, an order of magnitude heavier
// than a hot fingerprint record; budget the in-memory frontier at
// budget/512 entries so frontier and table split the budget on specs
// with modest state sizes.
size_t ResolveFrontierCap(const CheckerOptions& o, bool enabled) {
  if (!enabled) return SIZE_MAX;
  if (o.frontier_inmem_entries > 0) {
    return static_cast<size_t>(o.frontier_inmem_entries);
  }
  if (o.memory_budget_mb > 0) {
    const uint64_t bytes = o.memory_budget_mb << 20;
    return static_cast<size_t>(std::max<uint64_t>(1024, bytes / 512));
  }
  return SIZE_MAX;  // Checkpoint-only spilling: spool at checkpoints.
}

}  // namespace

Engine::Engine(const CheckerOptions& options, const Spec& spec)
    : options_(options),
      spec_(spec),
      actions_(spec.actions()),
      invariants_(spec.invariants()),
      clock_(options.clock != nullptr ? options.clock
                                      : common::MonotonicClock::Real()),
      workers_(common::ResolveWorkerCount(options.num_workers)),
      spill_enabled_(SpillRequested(options) && !options.record_graph),
      checkpointing_(spill_enabled_ && !options.checkpoint_dir.empty()),
      spill_dir_(ResolveSpillDir(options, spill_enabled_)),
      spill_dir_is_temp_(spill_enabled_ && options.spill_dir.empty() &&
                         options.checkpoint_dir.empty()),
      frontier_inmem_cap_(ResolveFrontierCap(options, spill_enabled_)),
      fpset_(FpOptions(spill_dir_, options.memory_budget_mb << 20,
                       checkpointing_)),
      pool_(workers_),
      scratch_(static_cast<size_t>(workers_)) {}

Engine::~Engine() = default;

void Engine::StartRun() {
  start_ns_ = clock_->NowNanos();
  intern_at_start_ = Value::GetInternStats();
  result_.workers_used = workers_;
  report_progress_ = options_.progress_reporter != nullptr;
  last_report_ns_ = start_ns_;
  if (options_.watchdog != nullptr) options_.watchdog->Heartbeat();
  obs::EventLog& events = obs::EventLog::Global();
  if (events.enabled()) {
    events.Emit(obs::EventSeverity::kInfo, "checker", "run.started",
                {{"workers", common::StrCat(workers_)},
                 {"actions", common::StrCat(actions_.size())},
                 {"invariants", common::StrCat(invariants_.size())}});
  }

  result_.spill_enabled = spill_enabled_;
  if (SpillRequested(options_) && !spill_enabled_) {
    result_.spill_notice =
        "out-of-core spilling disabled: incompatible with record_graph";
  }
  if (checkpointing_ && options_.checkpoint_every_s > 0) {
    next_checkpoint_ns_ =
        start_ns_ + options_.checkpoint_every_s * 1'000'000'000;
  }
  if (spill_enabled_ && events.enabled()) {
    events.Emit(
        obs::EventSeverity::kInfo, "checker", "spill.enabled",
        {{"dir", spill_dir_},
         {"budget_mb", common::StrCat(options_.memory_budget_mb)},
         {"checkpointing", checkpointing_ ? "1" : "0"}});
  }

  if (options_.record_graph) {
    result_.graph = std::make_shared<StateGraph>();
    result_.graph->BeginRecording(workers_);
    std::vector<std::string> action_names;
    action_names.reserve(actions_.size());
    for (const Action& a : actions_) action_names.push_back(a.name);
    result_.graph->set_action_names(std::move(action_names));
  }
}

bool Engine::CheckpointDue(int64_t now_ns) const {
  if (!checkpointing_) return false;
  return options_.checkpoint_every_s <= 0 || now_ns >= next_checkpoint_ns_;
}

void Engine::CheckpointWritten(int64_t now_ns) {
  ++result_.checkpoints_written;
  if (options_.checkpoint_every_s > 0) {
    next_checkpoint_ns_ =
        now_ns + options_.checkpoint_every_s * 1'000'000'000;
  }
  obs::EventLog& events = obs::EventLog::Global();
  if (events.enabled()) {
    events.Emit(obs::EventSeverity::kInfo, "checker", "checkpoint.written",
                {{"ordinal", common::StrCat(result_.checkpoints_written)},
                 {"distinct", common::StrCat(fpset_.size())}});
  }
}

CheckpointManifest Engine::MakeManifest() {
  CheckpointManifest m;
  m.generated = result_.generated_states;
  m.distinct = fpset_.size();
  m.diameter = result_.diameter;
  m.levels_completed = result_.levels_completed;
  m.frontier_peak = result_.frontier_peak;
  m.checkpoints = result_.checkpoints_written + 1;
  m.runs = fpset_.spill_run_infos();
  m.frontier = spool_->live_segment_files();
  m.frontier_total = spool_->size();
  // Initial states sorted by fingerprint so the manifest bytes are
  // stable across identical runs.
  std::vector<const std::pair<const uint64_t, State>*> initials;
  initials.reserve(initial_by_fp_.size());
  for (const auto& entry : initial_by_fp_) initials.push_back(&entry);
  std::sort(initials.begin(), initials.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : initials) {
    std::string blob;
    EncodeState(entry->second, &blob);
    m.initial_states.push_back(std::move(blob));
  }
  return m;
}

common::Status Engine::Resume() {
  CheckpointManifest manifest;
  common::Status status =
      ReadCheckpointManifest(options_.checkpoint_dir, &manifest);
  if (!status.ok()) {
    if (status.code() == common::StatusCode::kNotFound) {
      return common::Status::NotFound(common::StrCat(
          "--resume: no checkpoint manifest in ", options_.checkpoint_dir));
    }
    return status;
  }
  std::vector<std::string> files;
  files.reserve(manifest.runs.size());
  for (const SpillTier::RunInfo& info : manifest.runs) {
    files.push_back(info.file);
  }
  status = fpset_.AdoptSpillRuns(files);
  if (!status.ok()) return status;
  for (const std::string& blob : manifest.initial_states) {
    State init;
    size_t pos = 0;
    status = DecodeState(blob, &pos, &init);
    if (!status.ok()) return status;
    initial_by_fp_.emplace(Fingerprint(init), std::move(init));
  }
  uint64_t adopted = 0;
  status = spool_->AdoptSegments(manifest.frontier, &adopted);
  if (!status.ok()) return status;
  result_.generated_states = manifest.generated;
  result_.diameter = manifest.diameter;
  result_.levels_completed = manifest.levels_completed;
  result_.frontier_peak = manifest.frontier_peak;
  result_.checkpoints_written = manifest.checkpoints;
  // The levels and checkpoint counters count this process's; the states
  // totals continue from the manifest's.
  published_.levels_completed = manifest.levels_completed;
  published_.checkpoints_written = manifest.checkpoints;
  result_.resumed = true;
  obs::EventLog& events = obs::EventLog::Global();
  if (events.enabled()) {
    events.Emit(obs::EventSeverity::kInfo, "checker", "run.resumed",
                {{"checkpoint", common::StrCat(manifest.checkpoints)},
                 {"distinct", common::StrCat(manifest.distinct)},
                 {"frontier", common::StrCat(manifest.frontier_total)}});
  }
  return DropCheckpointOrphans(spill_dir_, manifest);
}

void Engine::CleanupSpillDir() {
  if (!spill_dir_is_temp_) return;
  std::vector<std::string> files;
  if (!common::ListDirFiles(spill_dir_, &files).ok()) return;
  for (const std::string& file : files) {
    common::RemoveFileIfExists(spill_dir_ + "/" + file);
  }
  ::rmdir(spill_dir_.c_str());
}

bool Engine::SeedInitial(std::vector<LevelEntry>* level) {
  struct Seed {
    State state;
    uint64_t fp;
    uint64_t key;
  };
  std::vector<Seed> seeds;
  uint64_t ordinal = 0;
  for (State& raw_init : spec_.InitialStates()) {
    ++result_.generated_states;
    State init = spec_.Canonicalize(raw_init);
    const uint64_t fp = Fingerprint(init);
    const uint64_t key = ordinal++;
    if (!fpset_.Insert(fp, 0, kFpInitialAction, 0, key).inserted) continue;
    seeds.push_back(Seed{std::move(init), fp, key});
  }
  // Every seed is inserted before any is checked, so an initial
  // violation reports all of them in the distinct count.
  for (Seed& seed : seeds) {
    initial_by_fp_.emplace(seed.fp, seed.state);
    const bool constrained = spec_.WithinConstraint(seed.state);
    uint32_t gid = StateGraph::kNoId;
    if (result_.graph) {
      gid = result_.graph->RegisterSeed(seed.fp, seed.state, constrained);
    }
    if (!constrained) continue;
    for (const Invariant& inv : invariants_) {
      if (!inv.predicate(seed.state)) {
        result_.violation = Violation{
            inv.name,
            {TraceStep{"Initial predicate", seed.state}}};
        return false;
      }
    }
    level->push_back(
        LevelEntry{std::move(seed.state), seed.fp, 0, seed.key, gid});
  }
  return true;
}

void Engine::CheckInvariants(const State& state, uint64_t fp,
                                 uint64_t key, Scratch& s) {
  for (const Invariant& inv : invariants_) {
    if (!inv.predicate(state)) {
      s.candidates.push_back(CandidateViolation{key, inv.name, fp, state});
      return;
    }
  }
}

void Engine::AdmitNew(State&& state, uint64_t fp, int64_t depth,
                          uint64_t key, Scratch& s) {
  // Invariants are checked on every distinct state, including states
  // outside the constraint (TLC checks invariants before applying
  // CONSTRAINT to decide on expansion).
  CheckInvariants(state, fp, key, s);
  // With record_graph, s.next is also the level's new graph nodes: the
  // barrier numbers exactly these states, in settled order.
  if (spec_.WithinConstraint(state)) {
    s.next.push_back(LevelEntry{std::move(state), fp, depth, key});
  }
}

void Engine::ProcessEntry(const LevelEntry& entry, size_t pos,
                              Scratch& s, int worker) {
  if (entry.depth > s.diameter) s.diameter = entry.depth;
  ++s.expanded;

  std::vector<State>& successors = s.successors;
  successors.clear();
  for (uint16_t ai = 0; ai < actions_.size(); ++ai) {
    const size_t before = successors.size();
    actions_[ai].next(entry.state, &successors);
    for (size_t si = before; si < successors.size(); ++si) {
      ++s.generated;
      s.staged_states.push_back(spec_.Canonicalize(successors[si]));
      const uint64_t fp = Fingerprint(s.staged_states.back());
      s.staged_items.push_back(FpInsertItem{fp, entry.fp,
                                            EventKey(pos, ai, si - before),
                                            entry.depth + 1, ai});
      if (result_.graph && entry.gid != StateGraph::kNoId) {
        result_.graph->RecordEdge(worker, entry.gid, fp, ai);
      }
      if (s.staged_items.size() == kInsertBatch) FlushStaged(s);
    }
  }

  if (options_.check_deadlock && successors.empty()) {
    s.candidates.push_back(CandidateViolation{DeadlockKey(pos), "Deadlock",
                                              entry.fp, entry.state});
  }
}

void Engine::FlushStaged(Scratch& s) {
  const size_t n = s.staged_items.size();
  if (n == 0) return;
  s.staged_results.resize(n);
  fpset_.InsertBatch(s.staged_items, s.staged_results);
  for (size_t i = 0; i < n; ++i) {
    if (!s.staged_results[i].inserted) continue;
    const FpInsertItem& item = s.staged_items[i];
    AdmitNew(std::move(s.staged_states[i]), item.fp, item.depth,
             item.order_key, s);
  }
  s.staged_states.clear();
  s.staged_items.clear();
}

std::vector<TraceStep> Engine::BuildTrace(uint64_t end_fp,
                                              const State& end_state) {
  // Walk the discovery chain back to an initial state, then replay it
  // forward: run the recorded action, canonicalize each successor, and
  // follow the one whose fingerprint matches the next link.
  std::vector<std::pair<uint64_t, uint16_t>> chain;  // (fp, arriving action)
  uint64_t fp = end_fp;
  while (true) {
    std::optional<FingerprintSet::Edge> edge = fpset_.GetEdge(fp);
    if (!edge.has_value()) break;
    chain.emplace_back(fp, edge->action);
    if (edge->action == kFpInitialAction) break;
    fp = edge->pred_fp;
  }
  std::reverse(chain.begin(), chain.end());
  std::vector<TraceStep> trace;
  if (chain.empty()) return trace;

  State state = initial_by_fp_.at(chain[0].first);
  trace.push_back(TraceStep{"Initial predicate", state});
  std::vector<State> successors;
  for (size_t i = 1; i < chain.size(); ++i) {
    const uint16_t ai = chain[i].second;
    if (i + 1 == chain.size()) {
      // The violating state itself travels with the candidate; no replay
      // needed for the final link.
      trace.push_back(TraceStep{actions_[ai].name, end_state});
      break;
    }
    successors.clear();
    actions_[ai].next(state, &successors);
    bool found = false;
    for (State& raw : successors) {
      State canon = spec_.Canonicalize(raw);
      if (Fingerprint(canon) == chain[i].first) {
        state = std::move(canon);
        found = true;
        break;
      }
    }
    if (!found) break;  // Fingerprint collision artifact; keep the prefix.
    trace.push_back(TraceStep{actions_[ai].name, state});
  }
  return trace;
}

obs::CheckerProgress Engine::Progress(int64_t now_ns, uint64_t frontier,
                                      bool final_report) const {
  obs::CheckerProgress p;
  p.generated_states = result_.generated_states;
  p.distinct_states = fpset_.size();
  p.frontier_size = frontier;
  p.depth = result_.diameter;
  p.seconds = static_cast<double>(now_ns - start_ns_) * 1e-9;
  p.fingerprint_load = fpset_.load_factor();
  p.final_report = final_report;
  // The final line's rate spans the run, an interval line's the interval.
  int64_t since_ns = start_ns_;
  uint64_t since_generated = 0;
  if (!final_report) {
    p.generated_states += generated_level_.load(std::memory_order_relaxed);
    p.depth = std::max(p.depth, scratch_[0].diameter);
    since_ns = last_report_ns_;
    since_generated = last_report_generated_;
  }
  const double dt = static_cast<double>(now_ns - since_ns) * 1e-9;
  p.states_per_sec =
      dt > 0 ? static_cast<double>(p.generated_states - since_generated) / dt
             : 0;
  return p;
}

void Engine::PollProgress(size_t level_size, size_t pos) {
  if (--poll_countdown_ != 0) return;
  poll_countdown_ = kProgressPollExpansions;
  const int64_t now_ns = clock_->NowNanos();
  if (now_ns - last_report_ns_ < kProgressIntervalMs * 1'000'000) return;
  obs::CheckerProgress p = Progress(
      now_ns,
      (level_size - pos) + next_count_.load(std::memory_order_relaxed),
      /*final_report=*/false);
  options_.progress_reporter->Report(p);
  last_report_ns_ = now_ns;
  last_report_generated_ = p.generated_states;
}

void Engine::SyncResult() {
  result_.distinct_states = fpset_.size();
  if (!spill_enabled_) return;
  const SpillTier::Stats spill = fpset_.spill_stats();
  result_.spill_runs = spill.runs;
  result_.spill_generations = spill.generations;
  result_.spill_records = spill.spilled_records;
  result_.spill_bytes = spill.bytes_written;
  result_.spill_compactions = spill.compactions;
  result_.spill_probe_ms = spill.probe_ms;
  result_.spill_merge_ms = spill.merge_ms;
  result_.frontier_segments = spool_->segments_written();
}

void Engine::Publish(bool run_ended) {
  auto& registry = obs::MetricsRegistry::Global();
  const auto raise = [this, &registry](std::string_view name,
                                       uint64_t CheckResult::*field) {
    registry.GetCounter(name).Increment(result_.*field - published_.*field);
    published_.*field = result_.*field;
  };
  const auto set = [&registry](std::string_view name, double value) {
    registry.GetGauge(name).Set(value);
  };
  raise("checker.states.generated", &CheckResult::generated_states);
  raise("checker.states.distinct", &CheckResult::distinct_states);
  raise("checker.levels.completed", &CheckResult::levels_completed);
  set("checker.workers.used", result_.workers_used);
  set("checker.frontier.peak", static_cast<double>(result_.frontier_peak));
  if (spill_enabled_) {
    raise("checker.spill.bytes", &CheckResult::spill_bytes);
    raise("checker.spill.frontier_segments", &CheckResult::frontier_segments);
    raise("checker.spill.compact.count", &CheckResult::spill_compactions);
    set("checker.spill.runs", static_cast<double>(result_.spill_runs));
    set("checker.spill.generations",
        static_cast<double>(result_.spill_generations));
    set("checker.spill.probe_ms", result_.spill_probe_ms);
    set("checker.spill.merge_ms", result_.spill_merge_ms);
  }
  if (checkpointing_) {
    raise("checker.checkpoint.writes", &CheckResult::checkpoints_written);
    set("checker.checkpoint.ms", checkpoint_ms_);
  }
  if (!run_ended) return;

  registry.GetCounter("checker.runs.completed").Increment();
  if (result_.violation.has_value()) {
    registry.GetCounter("checker.violations.found").Increment();
  }
  for (int w = 0; w < workers_; ++w) {
    const size_t i = static_cast<size_t>(w);
    registry.GetCounter(common::StrCat("checker.worker", w, ".expansions"))
        .Increment(scratch_[i].expanded);
    set(common::StrCat("checker.worker", w, ".busy_ms"),
        result_.worker_busy_ms[i]);
    set(common::StrCat("checker.worker", w, ".barrier_wait_ms"),
        result_.worker_barrier_wait_ms[i]);
  }
  set("checker.barrier.settle_ms", result_.barrier_settle_ms);
  set("checker.barrier.assemble_ms", static_cast<double>(assemble_ns_) * 1e-6);
  set("checker.barrier.graph_ms", static_cast<double>(graph_ns_) * 1e-6);
  set("checker.barrier.evict_ms", static_cast<double>(evict_ns_) * 1e-6);
  set("checker.barrier.spool_ms", static_cast<double>(spool_ns_) * 1e-6);
  set("checker.idle_fraction", result_.idle_fraction);
  set("checker.fingerprint.load", result_.fingerprint_load);
  set("checker.fingerprint.collision_probability",
      result_.fingerprint_collision_probability);
  set("checker.run.seconds", result_.seconds);
  set("checker.run.states_per_sec",
      result_.seconds > 0
          ? static_cast<double>(result_.generated_states) / result_.seconds
          : 0);
  if (result_.graph) {
    set("checker.graph.nodes",
        static_cast<double>(result_.graph->num_states()));
    set("checker.graph.edges",
        static_cast<double>(result_.graph->num_edges()));
    set("checker.graph.dup_edges",
        static_cast<double>(result_.graph->num_duplicate_edges()));
  }
  // Value-interning telemetry: table totals plus how many NEW composite
  // reps this run allocated per distinct state — the per-state allocator
  // pressure the interned value layer is meant to shrink.
  const Value::InternStats intern = Value::GetInternStats();
  set("value.intern.hits", static_cast<double>(intern.hits));
  set("value.intern.misses", static_cast<double>(intern.misses));
  set("value.intern.live", static_cast<double>(intern.live));
  set("value.intern.bytes", static_cast<double>(intern.bytes));
  set("checker.alloc.values_per_state",
      result_.distinct_states > 0
          ? static_cast<double>(intern.misses - intern_at_start_.misses) /
                static_cast<double>(result_.distinct_states)
          : 0);
}

CheckResult Engine::Finish(common::Status status) {
  result_.status = std::move(status);
  SyncResult();
  result_.fingerprint_load = fpset_.load_factor();
  // TLC's optimistic estimate: each of the g - n revisits could have hit
  // one of the n stored fingerprints by chance, with probability n / 2^64.
  // Every distinct state was generated at least once, so g >= n.
  const double n = static_cast<double>(result_.distinct_states);
  const double revisits =
      static_cast<double>(result_.generated_states) - n;
  result_.fingerprint_collision_probability = n * revisits / 0x1p64;
  const int64_t end_ns = clock_->NowNanos();
  result_.seconds = static_cast<double>(end_ns - start_ns_) * 1e-9;

  double busy_ms_total = 0;
  double wait_ms_total = 0;
  for (int w = 0; w < workers_; ++w) {
    const Scratch& s = scratch_[static_cast<size_t>(w)];
    const double busy_ms = static_cast<double>(s.busy_ns) * 1e-6;
    const double wait_ms = static_cast<double>(s.barrier_wait_ns) * 1e-6;
    result_.worker_busy_ms.push_back(busy_ms);
    result_.worker_barrier_wait_ms.push_back(wait_ms);
    busy_ms_total += busy_ms;
    wait_ms_total += wait_ms;
  }
  result_.barrier_settle_ms = static_cast<double>(settle_ns_) * 1e-6;
  // The barrier holds all W workers from expansion at once, so its wall
  // time contributes W-fold to the fleet's idle wall time.
  const double idle_ms = wait_ms_total + result_.barrier_settle_ms * workers_;
  const double total_ms = busy_ms_total + idle_ms;
  result_.idle_fraction = total_ms > 0 ? idle_ms / total_ms : 0;
  if (report_progress_) {
    options_.progress_reporter->Report(
        Progress(end_ns, next_count_.load(std::memory_order_relaxed),
                 /*final_report=*/true));
  }
  Publish(/*run_ended=*/true);
  obs::EventLog& events = obs::EventLog::Global();
  if (events.enabled()) {
    if (result_.violation.has_value()) {
      events.Emit(
          obs::EventSeverity::kError, "checker", "violation.found",
          {{"kind", result_.violation->kind},
           {"trace_length", common::StrCat(result_.violation->trace.size())},
           {"distinct", common::StrCat(result_.distinct_states)}});
    }
    if (!result_.status.ok()) {
      events.Emit(obs::EventSeverity::kWarn, "checker", "run.aborted",
                  {{"status", result_.status.ToString()}});
    }
    events.Emit(
        obs::EventSeverity::kInfo, "checker", "run.completed",
        {{"distinct", common::StrCat(result_.distinct_states)},
         {"generated", common::StrCat(result_.generated_states)},
         {"levels", common::StrCat(result_.levels_completed)},
         {"workers", common::StrCat(workers_)},
         {"violation",
          result_.violation.has_value() ? result_.violation->kind : ""}});
  }
  CleanupSpillDir();  // After the last spill_stats read.
  return result_;
}

}  // namespace xmodel::tlax::internal
