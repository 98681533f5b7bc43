// Experiment E1 (§4.2.3): the cost of making a specification
// trace-checkable. The paper reports that rewriting RaftMongo.tla for MBTC
// grew the state space from 42,034 states (2 s) to 371,368 states
// (14 minutes) at 3 nodes, <=3 terms, oplogs of <=3 entries.
//
// This bench model-checks both variants of our RaftMongo spec at the same
// bounds and prints the measured blow-up. Absolute counts differ from the
// paper's (a different checker and encoding); the SHAPE — an order of
// magnitude more states and a far super-proportional check time — is the
// claim under reproduction.

// A worker sweep (see DESIGN.md "Parallel checking") rides along: the
// detailed spec re-checked at 1, 2, and 4 workers, asserting the
// distinct-state count never moves, while emitting states/sec and
// idle_fraction per worker count so the artifact shows what the level
// barriers cost. `--workers=N` additionally runs the E1 rows themselves
// on N workers.

#include <cstdio>
#include <memory>
#include <thread>

#include "analysis/footprint.h"
#include "analysis/domain.h"
#include "analysis/independence.h"
#include "bench_util.h"
#include "common/strings.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"

using xmodel::specs::RaftMongoConfig;
using xmodel::specs::RaftMongoSpec;
using xmodel::specs::RaftMongoVariant;

namespace {

struct Row {
  const char* label;
  RaftMongoVariant variant;
  int64_t max_term;
  int64_t max_oplog;
  bool symmetry = false;
};

bool RunRow(const Row& row, int workers, double* abstract_states,
            double* abstract_secs, xmodel::bench::Harness* bench) {
  RaftMongoConfig config;
  config.variant = row.variant;
  config.num_nodes = 3;
  config.max_term = row.max_term;
  config.max_oplog_len = row.max_oplog;
  config.use_symmetry = row.symmetry;
  RaftMongoSpec spec(config);
  xmodel::tlax::CheckerOptions options;
  options.num_workers = workers;
  auto result = xmodel::tlax::ModelChecker(options).Check(spec);
  if (!result.status.ok()) {
    std::fprintf(stderr, "%s terms<=%lld oplog<=%lld aborted: %s\n",
                 row.label, static_cast<long long>(row.max_term),
                 static_cast<long long>(row.max_oplog),
                 result.status.ToString().c_str());
    return false;
  }
  const char* verdict = result.violation.has_value() ? "VIOLATION" : "ok";
  std::printf("%-22s terms<=%lld oplog<=%lld  %12llu states  %14llu "
              "generated  depth %2lld  %8.2f s  %s\n",
              row.label, static_cast<long long>(row.max_term),
              static_cast<long long>(row.max_oplog),
              static_cast<unsigned long long>(result.distinct_states),
              static_cast<unsigned long long>(result.generated_states),
              static_cast<long long>(result.diameter), result.seconds,
              verdict);
  if (row.variant == RaftMongoVariant::kAbstract && row.max_term == 3 &&
      row.max_oplog == 3) {
    *abstract_states = static_cast<double>(result.distinct_states);
    *abstract_secs = result.seconds;
  }
  if (row.variant == RaftMongoVariant::kDetailed && !row.symmetry &&
      row.max_term == 3 && row.max_oplog == 3) {
    double states_blowup =
        static_cast<double>(result.distinct_states) / *abstract_states;
    double time_blowup = result.seconds / *abstract_secs;
    std::printf("\nblow-up at the paper's bounds: %.1fx states, %.0fx "
                "check time\n",
                states_blowup, time_blowup);
    std::printf("paper reference:               8.8x states (42,034 -> "
                "371,368), ~420x time (2 s -> 14 min)\n");
    bench->AddResult("states_blowup", states_blowup);
    bench->AddResult("time_blowup", time_blowup);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --workers sets the E1 rows' workers; --mem-budget-mb sets the spill sweep's tight budget (default 1, so 0
  // is rejected).
  xmodel::tlax::CheckerOptions flags;
  flags.memory_budget_mb = 1;
  const xmodel::common::FlagParser checker_flags = xmodel::tlax::CheckerFlags(
      xmodel::tlax::kWorkersFlag | xmodel::tlax::kMemBudgetFlag,
      &flags);
  xmodel::bench::Harness bench(
      "state_space", argc, argv,
      [&](std::string_view arg, std::string* error) {
        const xmodel::common::FlagResult result = checker_flags(arg, error);
        if (flags.memory_budget_mb > 0) return result;
        *error = "--mem-budget-mb must be >= 1 for the spill sweep";
        return xmodel::common::FlagResult::kBad;
      });
  const int workers = flags.num_workers;
  const unsigned long long mem_budget_mb = flags.memory_budget_mb;

  std::printf("E1: state-space cost of a trace-checkable specification\n");
  std::printf("(RaftMongo, 3 nodes; Abstract = pre-MBTC spec, Detailed = "
              "rewritten for MBTC; %d worker(s))\n\n",
              workers);

  double abstract_states = 1, abstract_secs = 1;

  Row rows[] = {
      {"Abstract", RaftMongoVariant::kAbstract, 2, 2, false},
      {"Detailed", RaftMongoVariant::kDetailed, 2, 2, false},
      {"Detailed+symmetry", RaftMongoVariant::kDetailed, 2, 2, true},
      {"Abstract", RaftMongoVariant::kAbstract, 2, 3, false},
      {"Detailed", RaftMongoVariant::kDetailed, 2, 3, false},
      {"Detailed+symmetry", RaftMongoVariant::kDetailed, 2, 3, true},
      {"Abstract", RaftMongoVariant::kAbstract, 3, 3, false},
      {"Detailed", RaftMongoVariant::kDetailed, 3, 3, false},
      {"Detailed+symmetry", RaftMongoVariant::kDetailed, 3, 3, true},
  };
  for (const Row& row : rows) {
    if (bench.quick() && row.max_term == 3) {
      std::printf("%-22s terms<=3 oplog<=3  (skipped: quick mode)\n",
                  row.label);
      continue;
    }
    if (!RunRow(row, workers, &abstract_states, &abstract_secs, &bench)) {
      return bench.Fail("model check aborted");
    }
  }

  // Worker sweep: the detailed spec, fixed bounds, at rising worker
  // counts. Level-sync is deterministic, so the state set must be
  // identical at every worker count and a divergence fails the bench
  // outright. What the sweep is for: states/sec and idle_fraction per
  // worker count, showing what the level barriers cost.
  {
    RaftMongoConfig config;
    config.variant = RaftMongoVariant::kDetailed;
    config.num_nodes = 3;
    config.max_term = 2;
    config.max_oplog_len = bench.quick() ? 2 : 3;
    RaftMongoSpec spec(config);
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("\nworker scaling (Detailed, terms<=2 oplog<=%lld, "
                "%u hardware thread(s)):\n",
                static_cast<long long>(config.max_oplog_len), hw);
    if (hw < 2) {
      std::printf("  note: single-core machine — expect overhead, not "
                  "speedup; run on >=4 cores to see scaling\n");
    }
    bench.AddResult("hardware_threads", static_cast<double>(hw));
    const std::vector<int> sweep =
        bench.quick() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    unsigned long long base_distinct = 0;
    double base_rate = 0;
    for (int w : sweep) {
      xmodel::tlax::CheckerOptions options;
      options.num_workers = w;
      // Live plane: heartbeats + /progress while the sweep runs (no-ops
      // unless --serve is up), and the idle-time profiler result below.
      options.watchdog = bench.watchdog();
      options.progress_reporter = bench.progress();
      auto result = xmodel::tlax::ModelChecker(options).Check(spec);
      if (!result.status.ok()) {
        return bench.Fail("worker-scaling check aborted");
      }
      double rate = result.seconds > 0
                        ? static_cast<double>(result.generated_states) /
                              result.seconds
                        : 0;
      if (base_distinct == 0) {
        base_distinct = result.distinct_states;
        base_rate = rate;
      } else if (result.distinct_states != base_distinct) {
        return bench.Fail(xmodel::common::StrCat(
            "worker sweep changed distinct_states: ", base_distinct,
            " at w1 vs ", result.distinct_states, " at w", w));
      }
      double speedup = base_rate > 0 ? rate / base_rate : 0;
      std::printf("  workers=%d  %12llu states  depth %2lld  %8.2f s  "
                  "%10.0f states/sec  %.2fx  idle %.1f%%\n",
                  result.workers_used,
                  static_cast<unsigned long long>(result.distinct_states),
                  static_cast<long long>(result.diameter), result.seconds,
                  rate, speedup, 100.0 * result.idle_fraction);
      bench.AddResult(xmodel::common::StrCat("w", w, "_states_per_sec"),
                      rate);
      bench.AddResult(xmodel::common::StrCat("w", w, "_idle_fraction"),
                      result.idle_fraction);
    }
  }

  // Out-of-core spill sweep: the same check with the seen-set unlimited
  // in memory vs. bounded to --mem-budget-mb (default 1 MB — tight
  // enough that the hot table evicts several generations of sorted run
  // files and the frontier overflows to segment files). The out-of-core
  // contract is that none of this is observable in the results: distinct
  // states must be bit-identical, or the bench fails outright. What the
  // rows show is the price — states/sec with and without the disk tier,
  // plus the spill_* counters for the artifact.
  {
    RaftMongoConfig config;
    config.variant = RaftMongoVariant::kDetailed;
    config.num_nodes = 3;
    config.max_term = 2;
    config.max_oplog_len = bench.quick() ? 2 : 3;
    RaftMongoSpec spec(config);
    std::printf("\nout-of-core spill sweep (Detailed, terms<=2 oplog<=%lld, "
                "budget %llu MB):\n",
                static_cast<long long>(config.max_oplog_len), mem_budget_mb);
    unsigned long long unlimited_distinct = 0;
    double unlimited_rate = 0;
    for (bool tight : {false, true}) {
      xmodel::tlax::CheckerOptions options;
      options.num_workers = workers;
      options.watchdog = bench.watchdog();
      options.progress_reporter = bench.progress();
      if (tight) {
        // Spill dir left empty: a per-process temp directory, removed
        // when the run finishes.
        options.memory_budget_mb = mem_budget_mb;
      }
      auto result = xmodel::tlax::ModelChecker(options).Check(spec);
      if (!result.status.ok()) {
        return bench.Fail("spill sweep check aborted");
      }
      double rate = result.seconds > 0
                        ? static_cast<double>(result.generated_states) /
                              result.seconds
                        : 0;
      if (!tight) {
        unlimited_distinct = result.distinct_states;
        unlimited_rate = rate;
        std::printf("  unlimited            %12llu states  %8.2f s  "
                    "%10.0f states/sec\n",
                    static_cast<unsigned long long>(result.distinct_states),
                    result.seconds, rate);
        bench.AddResult("spill_unlimited_states_per_sec", rate);
        continue;
      }
      if (result.distinct_states != unlimited_distinct) {
        return bench.Fail(xmodel::common::StrCat(
            "out-of-core run changed distinct_states: ", unlimited_distinct,
            " unlimited vs ", result.distinct_states, " at ", mem_budget_mb,
            " MB"));
      }
      const double mstates =
          static_cast<double>(result.distinct_states) / 1e6;
      const double probe_ms_per_mstate =
          mstates > 0 ? result.spill_probe_ms / mstates : 0;
      std::printf("  budget %4llu MB       %12llu states  %8.2f s  "
                  "%10.0f states/sec (%.2fx)  %llu generations  %llu runs  "
                  "%.1f MB spilled  %llu frontier segment(s)  "
                  "probe %.0f ms/Mstate\n",
                  mem_budget_mb,
                  static_cast<unsigned long long>(result.distinct_states),
                  result.seconds, rate,
                  unlimited_rate > 0 ? rate / unlimited_rate : 0,
                  static_cast<unsigned long long>(result.spill_generations),
                  static_cast<unsigned long long>(result.spill_runs),
                  static_cast<double>(result.spill_bytes) / (1 << 20),
                  static_cast<unsigned long long>(result.frontier_segments),
                  probe_ms_per_mstate);
      bench.AddResult("spill_tight_states_per_sec", rate);
      bench.AddResult("spill_generations",
                      static_cast<double>(result.spill_generations));
      bench.AddResult("spill_runs", static_cast<double>(result.spill_runs));
      bench.AddResult("spill_records",
                      static_cast<double>(result.spill_records));
      bench.AddResult("spill_bytes", static_cast<double>(result.spill_bytes));
      bench.AddResult("spill_compactions",
                      static_cast<double>(result.spill_compactions));
      bench.AddResult("spill_probe_ms", result.spill_probe_ms);
      bench.AddResult("spill_merge_ms", result.spill_merge_ms);
      bench.AddResult("spill_frontier_segments",
                      static_cast<double>(result.frontier_segments));
      bench.AddResult("spill_probe_ms_per_mstate", probe_ms_per_mstate);
    }

    // Tight-budget worker scaling: the disk tier must keep scaling with
    // workers like the in-RAM checker does (batched probes of the mapped
    // runs are the mechanism), and distinct must stay
    // bit-identical to the unlimited run in every cell — any divergence
    // fails the bench outright.
    const std::vector<int> spill_sweep =
        bench.quick() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    double spill_w1_rate = 0;
    for (int w : spill_sweep) {
      xmodel::tlax::CheckerOptions options;
      options.num_workers = w;
      options.memory_budget_mb = mem_budget_mb;
      options.watchdog = bench.watchdog();
      auto result = xmodel::tlax::ModelChecker(options).Check(spec);
      if (!result.status.ok()) {
        return bench.Fail("tight-budget scaling check aborted");
      }
      if (result.distinct_states != unlimited_distinct) {
        return bench.Fail(xmodel::common::StrCat(
            "tight-budget scaling changed distinct_states: ",
            unlimited_distinct, " unlimited vs ", result.distinct_states,
            " at w", w));
      }
      double rate = result.seconds > 0
                        ? static_cast<double>(result.generated_states) /
                              result.seconds
                        : 0;
      if (w == 1) spill_w1_rate = rate;
      std::printf("  budget %4llu MB w=%d   %12llu states  %8.2f s  "
                  "%10.0f states/sec  %.2fx\n",
                  mem_budget_mb, result.workers_used,
                  static_cast<unsigned long long>(result.distinct_states),
                  result.seconds, rate,
                  spill_w1_rate > 0 ? rate / spill_w1_rate : 0);
      bench.AddResult(
          xmodel::common::StrCat("spill_w", w, "_states_per_sec"), rate);
    }
  }

  // Partial-order-reduction hints from the action-independence analysis:
  // the same exploration with and without the commutativity matrix,
  // measured through the metrics registry (checker.states.generated and
  // checker.por.actions_slept accumulate per run; resetting between runs
  // isolates each one). The reachable state set is preserved by
  // construction (sleep sets prune redundant interleavings, not states),
  // so `distinct` must match — what drops is the successors generated.
  // RaftMongo's footprint-only reduction is modest: its state constraint
  // reads term and oplog, and an action writing a constraint-read variable
  // is disqualified outright (the pruned interleaving could pass outside
  // the explored region). The abstract-domain pass recovers most of that:
  // an exhaustive probe proving an action's successors closed under the
  // constraint re-qualifies it, so the refined matrix sleeps strictly more
  // while visiting the identical state set — measured below against the
  // footprint-only baseline.
  auto& registry = xmodel::obs::MetricsRegistry::Global();
  auto counter_value = [](const xmodel::obs::RegistrySnapshot& snapshot,
                          const char* name) -> unsigned long long {
    const xmodel::obs::MetricSnapshot* m = snapshot.Find(name);
    return m == nullptr ? 0
                        : static_cast<unsigned long long>(m->value);
  };

  std::printf("\nindependence-guided exploration (sleep-set hints, "
              "registry-measured):\n");
  for (auto variant :
       {RaftMongoVariant::kAbstract, RaftMongoVariant::kDetailed}) {
    RaftMongoConfig config;
    config.variant = variant;
    config.num_nodes = 3;
    config.max_term = 2;
    config.max_oplog_len = 2;
    RaftMongoSpec spec(config);
    auto footprints = xmodel::analysis::InferFootprints(spec);
    auto matrix = std::make_shared<xmodel::tlax::ActionIndependence>(
        xmodel::analysis::ComputeIndependence(spec, footprints));

    registry.Reset();
    auto plain = xmodel::tlax::ModelChecker().Check(spec);
    xmodel::obs::RegistrySnapshot before = registry.Snapshot();

    registry.Reset();
    xmodel::tlax::CheckerOptions por_options;
    por_options.independence = matrix;
    auto reduced = xmodel::tlax::ModelChecker(por_options).Check(spec);
    xmodel::obs::RegistrySnapshot after = registry.Snapshot();

    if (!plain.status.ok() || !reduced.status.ok()) {
      return bench.Fail("POR comparison check aborted");
    }

    unsigned long long generated_before =
        counter_value(before, "checker.states.generated");
    unsigned long long generated_after =
        counter_value(after, "checker.states.generated");
    std::printf("%-22s %zu commuting pair(s)  distinct %llu -> %llu  "
                "generated %llu -> %llu (%.1f%% pruned, %llu slept)\n",
                spec.name().c_str(), matrix->NumCommutingPairs(),
                counter_value(before, "checker.states.distinct"),
                counter_value(after, "checker.states.distinct"),
                generated_before, generated_after,
                generated_before == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(generated_after) /
                                         static_cast<double>(
                                             generated_before)),
                counter_value(after, "checker.por.actions_slept"));
    if (variant == RaftMongoVariant::kDetailed) {
      bench.AddResult("por_generated_before",
                      static_cast<double>(generated_before));
      bench.AddResult("por_generated_after",
                      static_cast<double>(generated_after));
      bench.AddResult(
          "por_actions_slept",
          static_cast<double>(
              counter_value(after, "checker.por.actions_slept")));
    }

    // Value-sensitive refinement on top: the abstract-domain probe must
    // exhaust the reachable region (the constraint-closure proof is
    // worthless otherwise), and the refined matrix must keep the state
    // space bit-identical while sleeping strictly more actions.
    xmodel::analysis::DomainOptions domain_options;
    domain_options.max_samples = 1 << 18;
    auto domains = xmodel::analysis::InferDomains(spec, domain_options);
    auto refined =
        xmodel::analysis::RefineIndependence(spec, footprints, domains);
    registry.Reset();
    xmodel::tlax::CheckerOptions refined_options;
    refined_options.independence =
        std::make_shared<xmodel::tlax::ActionIndependence>(refined.matrix);
    auto refined_run =
        xmodel::tlax::ModelChecker(refined_options).Check(spec);
    xmodel::obs::RegistrySnapshot refined_snapshot = registry.Snapshot();
    if (!refined_run.status.ok()) {
      return bench.Fail("refined POR check aborted");
    }
    if (!domains.exhaustive ||
        refined_run.distinct_states != reduced.distinct_states ||
        refined_run.diameter != reduced.diameter ||
        refined_run.por_slept_actions <= reduced.por_slept_actions) {
      return bench.Fail(
          "value-sensitive refinement must preserve distinct/diameter and "
          "sleep strictly more than the footprint-only baseline");
    }
    std::printf("%-22s refined %zu -> %zu pair(s)  slept %llu -> %llu  "
                "generated %llu -> %llu\n",
                spec.name().c_str(), refined.base_commuting,
                refined.matrix.NumCommutingPairs(),
                static_cast<unsigned long long>(reduced.por_slept_actions),
                static_cast<unsigned long long>(
                    refined_run.por_slept_actions),
                generated_after,
                counter_value(refined_snapshot, "checker.states.generated"));
    if (variant == RaftMongoVariant::kDetailed) {
      bench.AddResult("por_refined_pairs",
                      static_cast<double>(refined.matrix.NumCommutingPairs()));
      bench.AddResult("por_refined_slept",
                      static_cast<double>(refined_run.por_slept_actions));
      bench.AddResult(
          "por_refined_generated",
          static_cast<double>(counter_value(refined_snapshot,
                                            "checker.states.generated")));
    }
  }
  return bench.Finish(0);
}
