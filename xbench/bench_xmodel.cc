// bench_xmodel: one iteration of one xmodel benchmark workload, in a fresh
// process, reported as one JSON line on stdout.
//
//   bench_xmodel --workload=NAME [--seed=N] [--trace=FILE] [--quick]
//                [--spawn-ns=T]
//
// NAME is one of the workloads below, or `all` to re-execute this binary
// once per workload. Every workload runs through the libraries' public
// entry points and checks its outputs against an oracle; a wrong output
// counts as a failed operation and makes the exit code 1. --trace=FILE
// turns on the span tracer around each public call (Chrome JSON written to
// FILE), reads the checker's registry gauges, and for the model-checking
// workloads runs a serial layer replay, adding a "layers" object of
// per-layer numbers. --seed drives the layer replay's timing sample; every
// workload's input is fixed (see RunMbtcFuzz for why the fuzzer traces
// are). --quick selects the smoke-test sizes. --spawn-ns is the parent's
// CLOCK_MONOTONIC reading just before it started this process, so setup_s
// covers process start-up too. Exit 2: bad flags, or a build that must not
// be measured (no NDEBUG, or a sanitizer).
//
// xbench/run.py repeats this process for the requested seconds and reports
// medians; README.md says why each workload was chosen.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "mbtcg/generator.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "otgo/go_merge.h"
#include "repl/rollback_fuzzer.h"
#include "specs/array_ot_spec.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"
#include "tlax/fpset.h"
#include "tlax/trace_check.h"
#include "trace/event_processor.h"
#include "trace/mbtc_pipeline.h"
#include "trace/trace_event.h"
#include "trace/trace_logger.h"

extern char** environ;

using namespace xmodel;  // NOLINT — bench binaries only.

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kUnmeasurableBuild = "built with a sanitizer";
#elif !defined(NDEBUG)
constexpr const char* kUnmeasurableBuild = "built without NDEBUG";
#else
constexpr const char* kUnmeasurableBuild = nullptr;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

constexpr int kWorkers = 4;
// The layer replay reads the clock around each layer call of one expanded
// state in this many (seeded), so clock reads stay a small share of it.
constexpr uint64_t kReplaySampleOneIn = 8;

const char* const kWorkloads[] = {"check_detailed", "check_spill",
                                  "check_symmetry", "mbtc_fuzz", "mbtcg_ot"};

int64_t NowNs() { return common::MonotonicClock::Real()->NowNanos(); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// VmHWM of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  std::string trace_path;
  bool quick = false;
  int64_t spawn_ns = -1;
};

bool ParseUint(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Parses argv into `flags`; on any unknown or malformed flag prints why
/// and returns false.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    uint64_t number = 0;
    if (arg == "--quick") {
      flags->quick = true;
    } else if (key == "--workload" && !value.empty()) {
      flags->workload = value;
    } else if (key == "--seed" && ParseUint(value, &number)) {
      flags->seed = number;
    } else if (key == "--trace" && !value.empty()) {
      flags->trace_path = value;
    } else if (key == "--spawn-ns" && ParseUint(value, &number)) {
      flags->spawn_ns = static_cast<int64_t>(number);
    } else {
      std::fprintf(stderr, "bench_xmodel: bad flag '%s'\n", argv[i]);
      return false;
    }
  }
  const bool known =
      flags->workload == "all" ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads),
                flags->workload) != std::end(kWorkloads);
  if (!known) {
    std::fprintf(stderr,
                 "bench_xmodel: --workload must be one of check_detailed, "
                 "check_spill, check_symmetry, mbtc_fuzz, mbtcg_ot, all\n");
    return false;
  }
  return true;
}

/// One workload iteration: timing of the timed phase, the operation tally
/// against the oracle, and (traced runs) the per-layer numbers.
class Run {
 public:
  Run(const Flags& flags, int64_t start_ns)
      : flags_(flags),
        setup_origin_ns_(flags.spawn_ns >= 0 ? flags.spawn_ns : start_ns) {}

  const Flags& flags() const { return flags_; }
  bool tracing() const { return !flags_.trace_path.empty(); }

  void BeginTimed() {
    timed_start_ns_ = NowNs();
    cpu_start_ = CpuSeconds();
    intern_start_ = tlax::Value::GetInternStats();
  }
  void EndTimed() {
    wall_s_ = static_cast<double>(NowNs() - timed_start_ns_) * 1e-9;
    cpu_s_ = CpuSeconds() - cpu_start_;
    intern_end_ = tlax::Value::GetInternStats();
  }
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

  /// Counts one operation; a false `ok` is a failure, described by `what`.
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(what);
  }
  /// Counts `total` operations of which `passed` succeeded.
  void ExpectMany(uint64_t total, uint64_t passed, const std::string& what) {
    attempted_ += total;
    if (passed >= total) return;
    failed_ += total - passed;
    if (errors_.size() < 8) errors_.push_back(what);
  }

  void Layer(const std::string& name, double value) {
    layers_[name] = std::isfinite(value) ? value : 0;
  }
  void OpLatencyMs(double ms) { op_ms_.push_back(ms); }

  /// The value-interning layer over the timed phase; `states` is the
  /// number of spec states the workload produced.
  void InternLayers(double states) {
    const double hits =
        static_cast<double>(intern_end_.hits - intern_start_.hits);
    const double misses =
        static_cast<double>(intern_end_.misses - intern_start_.misses);
    Layer("tlax.value.intern_hit_ratio", Ratio(hits, hits + misses));
    Layer("tlax.value.intern_live", static_cast<double>(intern_end_.live));
    Layer("tlax.value.intern_mb",
          static_cast<double>(intern_end_.bytes) / 1e6);
    Layer("tlax.value.values_per_state", Ratio(misses, states));
  }

  common::Json ToJson() const {
    common::Json doc = common::Json::MakeObject();
    doc.Set("workload", common::Json::Str(flags_.workload));
    doc.Set("seed", common::Json::Int(static_cast<int64_t>(flags_.seed)));
    doc.Set("quick", common::Json::Bool(flags_.quick));
    common::Json build = common::Json::MakeObject();
    build.Set("type", common::Json::Str(XMODEL_BENCH_BUILD_TYPE));
    build.Set("compiler", common::Json::Str(kCompiler));
    build.Set("nproc", common::Json::Int(static_cast<int64_t>(
                           std::thread::hardware_concurrency())));
    doc.Set("build", std::move(build));
    doc.Set("setup_s",
            common::Json::Double(
                static_cast<double>(timed_start_ns_ - setup_origin_ns_) *
                1e-9));
    doc.Set("wall_s", common::Json::Double(wall_s_));
    doc.Set("cpu_s", common::Json::Double(cpu_s_));
    doc.Set("peak_rss_mb", common::Json::Double(PeakRssMb()));
    doc.Set("attempted", common::Json::Int(static_cast<int64_t>(attempted_)));
    doc.Set("failed", common::Json::Int(static_cast<int64_t>(failed_)));
    doc.Set("correct", common::Json::Bool(correct()));
    common::Json errors = common::Json::MakeArray();
    for (const std::string& e : errors_) errors.Append(common::Json::Str(e));
    doc.Set("errors", std::move(errors));
    if (!op_ms_.empty()) {
      common::Json ops = common::Json::MakeArray();
      for (double ms : op_ms_) ops.Append(common::Json::Double(ms));
      doc.Set("op_ms", std::move(ops));
    }
    if (tracing()) {
      common::Json layers = common::Json::MakeObject();
      for (const auto& [name, value] : layers_) {
        layers.Set(name, common::Json::Double(value));
      }
      doc.Set("layers", std::move(layers));
    }
    return doc;
  }

  bool correct() const { return attempted_ > 0 && failed_ == 0; }

 private:
  Flags flags_;
  int64_t setup_origin_ns_;
  int64_t timed_start_ns_ = 0;
  double cpu_start_ = 0;
  double wall_s_ = 0;
  double cpu_s_ = 0;
  tlax::Value::InternStats intern_start_;
  tlax::Value::InternStats intern_end_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<double> op_ms_;
  std::map<std::string, double> layers_;
};

double Metric(const obs::RegistrySnapshot& snapshot, const std::string& name) {
  const obs::MetricSnapshot* metric = snapshot.Find(name);
  return metric != nullptr ? metric->value : 0;
}

/// Total duration of every recorded span named `name`, in seconds.
double SpanSeconds(const char* name) {
  int64_t us = 0;
  for (const obs::SpanRecord& span : obs::SpanTracer::Global().spans()) {
    if (std::string_view(span.name) == name) us += span.duration_us;
  }
  return static_cast<double>(us) * 1e-6;
}

// ---------------------------------------------------------------------------
// Layer replay: a serial BFS built only from the Spec interface and the
// fingerprint set, mirroring the checker's counting rules, that times each
// layer on a seeded sample of expanded states. An expanded state's work is
// done layer by layer (all actions, then every successor's Canonicalize,
// then fingerprint + insert, then the constraint and the invariants of the
// new ones), so a sampled state costs a fixed handful of clock reads.

struct ReplayResult {
  uint64_t distinct = 0;
  uint64_t generated = 0;
  uint64_t expanded = 0;
  uint64_t sampled = 0;
  bool violation = false;
  int64_t wall_ns = 0;
  // Time spent in clock reads, the replay's own instrumentation.
  double clock_ns = 0;
  // Nanoseconds spent in each layer on the sampled states, net of the
  // clock reads that bracket them.
  double next_ns = 0;
  double canonicalize_ns = 0;
  double fpset_ns = 0;
  double constraint_ns = 0;
  double invariants_ns = 0;
  std::vector<double> action_ns;

  /// Scales a sampled layer time up to the whole replay.
  double Estimate(double sampled_ns) const {
    return sampled_ns *
           Ratio(static_cast<double>(expanded), static_cast<double>(sampled));
  }
};

/// Cost of one clock read, the smallest of a few timed batches.
double ClockReadNs() {
  constexpr int kReads = 1000;
  double best = 1e9;
  for (int batch = 0; batch < 5; ++batch) {
    const int64_t start = NowNs();
    for (int i = 0; i < kReads; ++i) NowNs();
    best = std::min(best, static_cast<double>(NowNs() - start) / kReads);
  }
  return best;
}

/// Lap timer over one expanded state: each call returns the nanoseconds
/// since the previous call less one clock read, or 0 without reading the
/// clock when the state is not sampled.
class Lap {
 public:
  Lap(bool on, double read_ns, ReplayResult* r)
      : on_(on), read_ns_(read_ns), r_(r) {
    if (on_) last_ = Read();
  }
  double operator()() {
    if (!on_) return 0;
    const int64_t now = Read();
    const double elapsed = static_cast<double>(now - last_) - read_ns_;
    last_ = now;
    return elapsed;
  }

 private:
  int64_t Read() {
    r_->clock_ns += read_ns_;
    return NowNs();
  }

  bool on_;
  double read_ns_;
  ReplayResult* r_;
  int64_t last_ = 0;
};

ReplayResult Replay(const tlax::Spec& spec, uint64_t seed) {
  const std::vector<tlax::Action>& actions = spec.actions();
  const std::vector<tlax::Invariant>& invariants = spec.invariants();
  auto holds = [&](const tlax::State& state) {
    for (const tlax::Invariant& inv : invariants) {
      if (!inv.predicate(state)) return false;
    }
    return true;
  };
  ReplayResult r;
  r.action_ns.assign(actions.size(), 0);
  const double read_ns = ClockReadNs();
  common::Rng rng(seed);
  tlax::FingerprintSet seen;
  uint64_t order_key = 0;
  std::vector<std::pair<tlax::State, uint64_t>> level;
  std::vector<std::pair<tlax::State, uint64_t>> next_level;
  std::vector<tlax::State> successors;
  std::vector<uint16_t> via;                        // Action per successor.
  std::vector<std::pair<size_t, uint64_t>> fresh;   // New: (index, fp).
  std::vector<char> constrained;

  const int64_t start_ns = NowNs();
  for (const tlax::State& raw : spec.InitialStates()) {
    ++r.generated;
    tlax::State init = spec.Canonicalize(raw);
    const uint64_t fp = tlax::Fingerprint(init);
    if (!seen.Insert(fp, 0, tlax::kFpInitialAction, 0, order_key++, 0,
                     nullptr)
             .inserted) {
      continue;
    }
    if (!spec.WithinConstraint(init)) continue;
    r.violation |= !holds(init);
    level.emplace_back(std::move(init), fp);
  }
  for (int64_t depth = 1; !level.empty(); ++depth) {
    for (const auto& [state, fp] : level) {
      const bool sample = rng.Below(kReplaySampleOneIn) == 0;
      ++r.expanded;
      r.sampled += sample ? 1 : 0;
      Lap lap(sample, read_ns, &r);
      successors.clear();
      via.clear();
      for (uint16_t ai = 0; ai < actions.size(); ++ai) {
        actions[ai].next(state, &successors);
        const double next_ns = lap();
        r.next_ns += next_ns;
        r.action_ns[ai] += next_ns;
        via.resize(successors.size(), ai);
      }
      r.generated += successors.size();
      lap();  // Bookkeeping between layers is no layer's time.
      for (tlax::State& succ : successors) succ = spec.Canonicalize(succ);
      r.canonicalize_ns += lap();
      fresh.clear();
      for (size_t i = 0; i < successors.size(); ++i) {
        const uint64_t succ_fp = tlax::Fingerprint(successors[i]);
        if (seen.Insert(succ_fp, fp, via[i], depth, order_key++, 0, nullptr)
                .inserted) {
          fresh.emplace_back(i, succ_fp);
        }
      }
      r.fpset_ns += lap();
      constrained.clear();
      for (const auto& [i, succ_fp] : fresh) {
        constrained.push_back(spec.WithinConstraint(successors[i]) ? 1 : 0);
      }
      r.constraint_ns += lap();
      for (const auto& [i, succ_fp] : fresh) {
        r.violation |= !holds(successors[i]);
      }
      r.invariants_ns += lap();
      for (size_t k = 0; k < fresh.size(); ++k) {
        if (constrained[k] == 0) continue;
        next_level.emplace_back(std::move(successors[fresh[k].first]),
                                fresh[k].second);
      }
    }
    level.swap(next_level);
    next_level.clear();
  }
  r.wall_ns = NowNs() - start_ns;
  r.distinct = seen.size();
  return r;
}

/// Runs the replay, checks it reproduces the checker's counts, and records
/// the specs / fpset / replay layers. Returns the replay's serial cost per
/// state in nanoseconds.
double ReplayLayers(Run& run, const tlax::Spec& spec, uint64_t distinct,
                    uint64_t generated) {
  const ReplayResult r = Replay(spec, run.flags().seed);
  run.Expect(r.distinct == distinct && r.generated == generated &&
                 !r.violation,
             common::StrCat("layer replay found ", r.distinct, " distinct / ",
                            r.generated, " generated, checker ", distinct,
                            " / ", generated));
  const double states = static_cast<double>(r.distinct);
  const double succs = static_cast<double>(r.generated);
  const double next = r.Estimate(r.next_ns);
  const double canonicalize = r.Estimate(r.canonicalize_ns);
  const double fpset = r.Estimate(r.fpset_ns);
  const double constraint = r.Estimate(r.constraint_ns);
  const double invariants = r.Estimate(r.invariants_ns);
  // The replay's wall time without its own clock reads.
  const double wall = static_cast<double>(r.wall_ns) - r.clock_ns;
  run.Layer("bench.replay.ns_per_state", Ratio(wall, states));
  run.Layer("bench.replay.other_fraction",
            1 - Ratio(next + canonicalize + fpset + constraint + invariants,
                      wall));
  run.Layer("specs.next_ns_per_state", Ratio(next, states));
  run.Layer("specs.succ_per_state",
            Ratio(succs, static_cast<double>(r.expanded)));
  run.Layer("specs.canonicalize_ns_per_succ", Ratio(canonicalize, succs));
  run.Layer("specs.constraint_ns_per_state", Ratio(constraint, states));
  run.Layer("specs.invariants_ns_per_state", Ratio(invariants, states));
  run.Layer("tlax.fpset.insert_ns_per_succ", Ratio(fpset, succs));
  for (size_t ai = 0; ai < spec.actions().size(); ++ai) {
    run.Layer("specs.next." + spec.actions()[ai].name,
              Ratio(r.action_ns[ai], r.next_ns));
  }
  return Ratio(wall, states);
}

/// The checker layers (fingerprint set, engine, disk tier) of the single
/// model check this process ran, read back from the metrics registry.
void CheckerLayers(Run& run, uint64_t memory_budget_mb) {
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const double distinct = Metric(snap, "checker.states.distinct");
  const double generated = Metric(snap, "checker.states.generated");
  run.Layer("tlax.fpset.distinct", distinct);
  run.Layer("tlax.fpset.generated", generated);
  run.Layer("tlax.fpset.new_ratio", Ratio(distinct, generated));
  run.Layer("tlax.fpset.load_factor", Metric(snap, "checker.fingerprint.load"));
  run.Layer("tlax.fpset.bytes_per_state", Ratio(PeakRssMb() * 1e6, distinct));

  double busy = 0, wait = 0, steal = 0, starve = 0;
  const int workers = static_cast<int>(Metric(snap, "checker.workers.used"));
  for (int w = 0; w < workers; ++w) {
    const std::string prefix = common::StrCat("checker.worker", w, ".");
    busy += Metric(snap, prefix + "busy_ms");
    wait += Metric(snap, prefix + "barrier_wait_ms");
    steal += Metric(snap, prefix + "steal_ms");
    starve += Metric(snap, prefix + "starve_ms");
  }
  const double settle = workers * Metric(snap, "checker.barrier.settle_ms");
  const double worker_ms = busy + wait + settle + steal + starve;
  run.Layer("tlax.engine.idle_fraction", Metric(snap, "checker.idle_fraction"));
  run.Layer("tlax.engine.barrier_wait_frac", Ratio(wait, worker_ms));
  run.Layer("tlax.engine.settle_frac", Ratio(settle, worker_ms));
  run.Layer("tlax.engine.steal_frac", Ratio(steal, worker_ms));
  run.Layer("tlax.engine.starve_frac", Ratio(starve, worker_ms));
  run.Layer("tlax.engine.levels", Metric(snap, "checker.levels.completed"));
  run.Layer("tlax.engine.frontier_peak", Metric(snap, "checker.frontier.peak"));
  run.Layer("tlax.engine.busy_ns_per_state", Ratio(busy * 1e6, distinct));

  const double mstates = distinct / 1e6;
  const double bytes = Metric(snap, "checker.spill.bytes");
  const double hits = Metric(snap, "checker.spill.cache.hits");
  const double misses = Metric(snap, "checker.spill.cache.misses");
  run.Layer("tlax.spill.generations", Metric(snap, "checker.spill.generations"));
  run.Layer("tlax.spill.runs", Metric(snap, "checker.spill.runs"));
  run.Layer("tlax.spill.mb_written", bytes / 1e6);
  run.Layer("tlax.spill.write_amp", Ratio(bytes, distinct * 8));
  run.Layer("tlax.spill.probe_ms_per_mstate",
            Ratio(Metric(snap, "checker.spill.probe_ms"), mstates));
  run.Layer("tlax.spill.merge_ms_per_mstate",
            Ratio(Metric(snap, "checker.spill.merge_ms"), mstates));
  run.Layer("tlax.spill.compactions", Metric(snap, "checker.spill.compact.count"));
  run.Layer("tlax.spill.frontier_segments",
            Metric(snap, "checker.spill.frontier_segments"));
  run.Layer("tlax.spill.cache_hit_ratio", Ratio(hits, hits + misses));
  run.Layer("tlax.spill.cache_mb", Metric(snap, "checker.spill.cache.bytes") / 1e6);
  run.Layer("tlax.spill.rss_over_budget",
            Ratio(PeakRssMb(), static_cast<double>(memory_budget_mb)));
}

// ---------------------------------------------------------------------------
// Workloads. Each builds its inputs (set-up), brackets the calls it times
// with BeginTimed/EndTimed, then checks every output against its oracle.

struct CheckWorkload {
  specs::RaftMongoConfig spec;
  tlax::ExplorationPolicy policy = tlax::ExplorationPolicy::kLevelSync;
  uint64_t memory_budget_mb = 0;
  // Oracle: the counts every correct checker reports for this spec.
  uint64_t distinct = 0;
  uint64_t generated = 0;
};

CheckWorkload CheckWorkloadFor(const std::string& name, bool quick) {
  CheckWorkload w;
  w.spec.variant = specs::RaftMongoVariant::kDetailed;
  w.spec.num_nodes = 3;
  w.spec.max_term = quick ? 2 : 3;
  w.spec.max_oplog_len = 2;
  w.distinct = quick ? 113'664 : 688'378;
  w.generated = quick ? 527'809 : 3'415'978;
  if (name == "check_spill") {
    w.memory_budget_mb = quick ? 1 : 4;
  } else if (name == "check_symmetry") {
    w.spec.use_symmetry = true;
    w.policy = tlax::ExplorationPolicy::kRelaxed;
    w.distinct = quick ? 19'473 : 116'688;
    w.generated = quick ? 91'877 : 584'553;
  }
  return w;
}

void RunCheck(Run& run) {
  const CheckWorkload w =
      CheckWorkloadFor(run.flags().workload, run.flags().quick);
  const specs::RaftMongoSpec spec(w.spec);
  tlax::CheckerOptions options;
  options.num_workers = kWorkers;
  options.exploration = w.policy;
  options.memory_budget_mb = w.memory_budget_mb;

  run.BeginTimed();
  tlax::CheckResult result;
  {
    XMODEL_SPAN("tlax.check");
    result = tlax::ModelChecker(options).Check(spec);
  }
  run.EndTimed();

  const bool spilled = w.memory_budget_mb == 0 || result.spill_generations > 0;
  run.Expect(result.ok() && result.distinct_states == w.distinct &&
                 result.generated_states == w.generated && spilled,
             common::StrCat("check: status ", result.status.ToString(),
                            result.violation ? " with a violation" : "", ", ",
                            result.distinct_states, " distinct / ",
                            result.generated_states, " generated, ",
                            result.spill_generations, " spill generations"));
  if (!run.tracing()) return;
  run.InternLayers(static_cast<double>(result.distinct_states));
  CheckerLayers(run, w.memory_budget_mb);
  const double cpu_ns_per_state =
      Ratio(run.cpu_s() * 1e9, static_cast<double>(w.distinct));
  run.Layer("tlax.engine.cpu_ns_per_state", cpu_ns_per_state);
  // Checker CPU per state beyond the serial layer work: parallel overhead,
  // frontier handling and (check_spill) the disk tier.
  run.Layer("tlax.engine.overhead_ns_per_state",
            cpu_ns_per_state - ReplayLayers(run, spec, w.distinct, w.generated));
}

void RunMbtcFuzz(Run& run) {
  const int traces = run.flags().quick ? 4 : 16;
  const int steps = run.flags().quick ? 1000 : 4000;

  // Set-up: the repl simulation that produces each trace's per-node logs.
  // The traces are a fixed corpus (fuzzer seeds 1..traces), not drawn from
  // --seed: one trace's check cost varies by about 44% between fuzzer
  // seeds, so sixteen seeded traces would spread a run's wall time by
  // about 20% between seeds, most of the 25% bound on their own.
  std::vector<std::vector<std::vector<std::string>>> logs;
  const int64_t sim_start_ns = NowNs();
  uint64_t sim_events = 0;
  for (int i = 0; i < traces; ++i) {
    repl::RollbackFuzzerOptions options;
    options.seed = 1 + static_cast<uint64_t>(i);
    options.num_steps = steps;
    // The paper's solution-2 mitigations: every trace is checkable.
    options.sync_all_before_writes = true;
    options.avoid_unclean_restarts = true;
    options.avoid_two_leaders = true;
    repl::ReplicaSet rs(options.config);
    trace::TraceLogger logger(&rs.clock());
    rs.AttachTraceSink(&logger);
    repl::RollbackFuzzer(options).Run(&rs);
    sim_events += logger.events_logged();
    logs.push_back(logger.LogFiles(rs.num_nodes()));
  }
  const double sim_s = static_cast<double>(NowNs() - sim_start_ns) * 1e-9;

  specs::RaftMongoConfig spec_config;
  spec_config.variant = specs::RaftMongoVariant::kDetailed;
  spec_config.num_nodes = 3;
  spec_config.max_term = 1'000'000;  // Traces are checked unbounded.
  spec_config.max_oplog_len = 1'000'000;
  const specs::RaftMongoSpec spec(spec_config);
  trace::EventProcessorOptions processor_options;
  processor_options.num_nodes = spec_config.num_nodes;
  tlax::TraceCheckOptions check_options;
  check_options.allow_stuttering = true;
  check_options.num_workers = kWorkers;

  uint64_t events = 0;
  uint64_t explored = 0;
  std::vector<std::string> failures;
  run.BeginTimed();
  for (int i = 0; i < traces; ++i) {
    const int64_t start_ns = NowNs();
    common::Result<std::vector<trace::TraceEvent>> merged = [&] {
      XMODEL_SPAN("trace.merge");
      return trace::MergeLogs(logs[static_cast<size_t>(i)]);
    }();
    std::string failure;
    if (merged.ok()) {
      events += merged->size();
      trace::ProcessedTrace processed;
      std::vector<tlax::TraceState> states;
      {
        XMODEL_SPAN("trace.process");
        processed = trace::EventProcessor(processor_options).Process(*merged);
        states = trace::MbtcPipeline::ToTraceStates(processed.states);
      }
      if (processed.ok()) {
        XMODEL_SPAN("tlax.trace_check");
        const tlax::TraceCheckResult check =
            tlax::TraceChecker(check_options).Check(spec, states);
        explored += check.states_explored;
        if (!check.ok()) failure = check.status.ToString();
      } else {
        failure = processed.status.ToString();
      }
    } else {
      failure = merged.status().ToString();
    }
    run.OpLatencyMs(static_cast<double>(NowNs() - start_ns) * 1e-6);
    failures.push_back(std::move(failure));
  }
  run.EndTimed();

  for (int i = 0; i < traces; ++i) {
    const std::string& failure = failures[static_cast<size_t>(i)];
    run.Expect(failure.empty(),
               common::StrCat("fuzzer trace seed ", 1 + i, ": ", failure));
  }
  if (!run.tracing()) return;
  const double n = static_cast<double>(events);
  run.InternLayers(static_cast<double>(explored));
  run.Layer("trace.events", n);
  run.Layer("trace.merge_us_per_event",
            Ratio(SpanSeconds("trace.merge") * 1e6, n));
  run.Layer("trace.process_us_per_event",
            Ratio(SpanSeconds("trace.process") * 1e6, n));
  run.Layer("trace.merge_share", Ratio(SpanSeconds("trace.merge"), run.wall_s()));
  run.Layer("trace.process_share",
            Ratio(SpanSeconds("trace.process"), run.wall_s()));
  run.Layer("tlax.trace_check.us_per_event",
            Ratio(SpanSeconds("tlax.trace_check") * 1e6, n));
  run.Layer("tlax.trace_check.share",
            Ratio(SpanSeconds("tlax.trace_check"), run.wall_s()));
  run.Layer("tlax.trace_check.states_explored", static_cast<double>(explored));
  run.Layer("tlax.trace_check.explored_per_event",
            Ratio(static_cast<double>(explored), n));
  run.Layer("repl.sim_us_per_event",
            Ratio(sim_s * 1e6, static_cast<double>(sim_events)));
  run.Layer("repl.events_per_s", Ratio(static_cast<double>(sim_events), sim_s));
}

void RunMbtcgOt(Run& run) {
  specs::ArrayOtConfig config;
  config.num_clients = run.flags().quick ? 3 : 4;
  config.initial_array_len = run.flags().quick ? 3 : 2;
  // Oracle: the explored spec states, and one case per combination of the
  // clients' operations (the operation menu to the power of the clients).
  const uint64_t spec_states = run.flags().quick ? 29'785 : 81'111;
  const uint64_t menu = specs::ArrayOtSpec::EnumerateOps(
                            config.initial_array_len, 1, config.include_swap)
                            .size();
  uint64_t expected_cases = 1;
  for (int c = 0; c < config.num_clients; ++c) expected_cases *= menu;
  mbtcg::GenerateOptions options;
  options.num_workers = kWorkers;
  const otgo::GoMergeEngine go;

  run.BeginTimed();
  std::vector<mbtcg::TestCase> cases;
  mbtcg::GenerationReport generation;
  {
    XMODEL_SPAN("mbtcg.generate");
    generation = mbtcg::GenerateTestCases(config, &cases, options);
  }
  mbtcg::RunReport cpp_run;
  {
    XMODEL_SPAN("ot.run");
    cpp_run = mbtcg::RunTestCases(cases);
  }
  mbtcg::RunReport go_run;
  {
    XMODEL_SPAN("otgo.run");
    go_run = mbtcg::RunTestCases(cases, &go);
  }
  run.EndTimed();

  run.Expect(generation.status.ok() && generation.spec_states == spec_states &&
                 cases.size() == expected_cases,
             common::StrCat("generation: status ",
                            generation.status.ToString(), ", ",
                            generation.spec_states, " spec states, ",
                            cases.size(), " cases"));
  run.ExpectMany(cpp_run.total, cpp_run.passed,
                 common::StrCat("ot: ", cpp_run.passed, "/", cpp_run.total,
                                " cases passed"));
  run.ExpectMany(go_run.total, go_run.passed,
                 common::StrCat("otgo: ", go_run.passed, "/", go_run.total,
                                " cases passed"));
  if (!run.tracing()) return;
  const double n = static_cast<double>(cases.size());
  run.InternLayers(static_cast<double>(generation.spec_states));
  CheckerLayers(run, 0);
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  run.Layer("tlax.graph.nodes", Metric(snap, "checker.graph.nodes"));
  run.Layer("tlax.graph.edges", Metric(snap, "checker.graph.edges"));
  run.Layer("mbtcg.cases", n);
  run.Layer("mbtcg.check_share",
            Ratio(generation.model_check_seconds, run.wall_s()));
  run.Layer("mbtcg.extract_share",
            Ratio(generation.extract_seconds, run.wall_s()));
  run.Layer("mbtcg.extract_us_per_case",
            Ratio(generation.extract_seconds * 1e6, n));
  run.Layer("ot.ns_per_case", Ratio(SpanSeconds("ot.run") * 1e9, n));
  run.Layer("otgo.ns_per_case", Ratio(SpanSeconds("otgo.run") * 1e9, n));
  run.Layer("ot.run_share", Ratio(SpanSeconds("ot.run"), run.wall_s()));
  run.Layer("otgo.run_share", Ratio(SpanSeconds("otgo.run"), run.wall_s()));
  const specs::ArrayOtSpec spec(config);
  ReplayLayers(run, spec, generation.spec_states,
               static_cast<uint64_t>(Metric(snap, "checker.states.generated")));
}

/// `--workload=all`: re-executes this binary once per workload with the
/// same flags, so each workload gets a fresh process. Returns the worst
/// exit code.
int RunAll(const Flags& flags) {
  int worst = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args = {"/proc/self/exe",
                                     common::StrCat("--workload=", workload),
                                     common::StrCat("--seed=", flags.seed)};
    if (flags.quick) args.emplace_back("--quick");
    if (!flags.trace_path.empty()) {
      args.push_back(
          common::StrCat("--trace=", flags.trace_path, ".", workload, ".json"));
    }
    args.push_back(common::StrCat("--spawn-ns=", NowNs()));
    std::vector<char*> child_argv;
    for (std::string& arg : args) child_argv.push_back(arg.data());
    child_argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                    child_argv.data(), environ) != 0) {
      std::fprintf(stderr, "bench_xmodel: cannot start %s\n", workload);
      return 2;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_ns = NowNs();
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  if (kUnmeasurableBuild != nullptr) {
    std::fprintf(stderr, "bench_xmodel: refusing to report: %s\n",
                 kUnmeasurableBuild);
    return 2;
  }
  if (flags.workload == "all") return RunAll(flags);

  if (!flags.trace_path.empty()) obs::SpanTracer::Global().Enable();
  Run run(flags, start_ns);
  if (flags.workload == "mbtc_fuzz") {
    RunMbtcFuzz(run);
  } else if (flags.workload == "mbtcg_ot") {
    RunMbtcgOt(run);
  } else {
    RunCheck(run);
  }
  if (!flags.trace_path.empty()) {
    const common::Status status =
        obs::SpanTracer::Global().WriteChromeJson(flags.trace_path);
    run.Expect(status.ok(), "trace file: " + status.ToString());
  }
  std::printf("%s\n", run.ToJson().Dump().c_str());
  return run.correct() ? 0 : 1;
}
