// xmodel_lint: static analysis over every registered spec and the repl
// lock manager.
//
//   xmodel_lint                 lint all specs + the repl lock scenarios
//   xmodel_lint --json          machine-readable output
//   xmodel_lint --spec=Raft     only specs whose name contains "Raft"
//   xmodel_lint --matrix        also print action-commutativity matrices
//   xmodel_lint --no-scenarios  skip the lock-order pass
//   xmodel_lint --broken-fixture  lint the seeded-defect fixture instead
//                                 (must exit nonzero; CI checks this)
//   xmodel_lint --unbounded-fixture  lint the missing-constraint fixture
//                                    (must report an unbounded budget)
//   xmodel_lint --workers=N     exploration workers for the bounded
//                               model-check pass (0 = all cores)
//   xmodel_lint --explore=POLICY  exploration policy for the bounded
//                                 model-check pass: "level" (default) or
//                                 "relaxed" (work-stealing frontier). The
//                                 relaxed pass skips graph recording —
//                                 recording needs level barriers and
//                                 would clamp the policy back — so SCC
//                                 counts read 0 there.
//   xmodel_lint --domain-samples=N  state budget for the abstract-domain
//                                   probe (default 262144)
//   xmodel_lint --metrics-out=FILE  write a metrics-registry snapshot
//                                   (crash-safe: temp file + atomic rename)
//   xmodel_lint --events-out=FILE   append structured events as JSONL
//   xmodel_lint --serve=PORT        live observability plane on
//                                   127.0.0.1:PORT (/metrics /healthz
//                                   /progress /events); 0 = ephemeral
//   xmodel_lint --serve-linger-ms=N keep serving for N ms after the run
//                                   (or until GET /quitquitquit)
//   xmodel_lint --stall-timeout-ms=N  watchdog threshold (default 30000)
//   xmodel_lint --mem-budget-mb=N   out-of-core model-check pass: bound
//                                   the hot fingerprint table to ~N MB,
//                                   spilling the rest as sorted run
//                                   files (0 = unlimited). Implies the
//                                   pass skips graph recording (SCC
//                                   counts read 0), like --explore=relaxed.
//   xmodel_lint --spill-dir=DIR     where spill runs/segments live
//                                   (default: checkpoint dir, else a
//                                   per-process temp dir)
//   xmodel_lint --spill-bloom-bits=N  Bloom bits per spilled fingerprint
//                                     in [1, 64] (default 10); more bits
//                                     = fewer false-positive disk probes
//   xmodel_lint --spill-block-size=N  fingerprints per spill-run block
//                                     in [16, 65536] (default 256), the
//                                     probe/merge IO granularity
//   xmodel_lint --checkpoint-dir=DIR  periodically checkpoint the
//                                     model-check pass; resumable
//   xmodel_lint --checkpoint-every-s=N  seconds between checkpoints
//                                       (0 = every barrier)
//   xmodel_lint --resume            resume the model-check pass from
//                                   --checkpoint-dir's manifest
//
// Besides the static passes, each spec gets a bounded model check (capped
// at --max-samples distinct states) so the lint run also smoke-tests the
// dynamic semantics; invariant violations surface as warning-severity
// diagnostics and never change the exit status.
//
// Exit status: 0 when no error-severity diagnostic was produced.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/domain.h"
#include "analysis/footprint.h"
#include "analysis/independence.h"
#include "analysis/lock_order.h"
#include "analysis/spec_lint.h"
#include "analysis/spec_registry.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "repl/replica_set.h"
#include "repl/scenarios.h"
#include "tlax/checker.h"
#include "tlax/liveness.h"

namespace {

using namespace xmodel;  // NOLINT — main binary only.

struct Options {
  bool json = false;
  bool matrix = false;
  bool scenarios = true;
  bool broken_fixture = false;
  bool unbounded_fixture = false;
  uint64_t max_samples = 4096;
  uint64_t domain_samples = analysis::DomainOptions{}.max_samples;
  int workers = 1;
  tlax::ExplorationPolicy explore = tlax::ExplorationPolicy::kLevelSync;
  std::string spec_filter;
  std::string metrics_out;
  std::string events_out;
  int serve_port = -1;  // -1 = no HTTP server.
  int64_t serve_linger_ms = 0;
  int64_t stall_timeout_ms = 30'000;
  uint64_t mem_budget_mb = 0;
  std::string spill_dir;
  uint64_t spill_bloom_bits = 0;    // 0 = tier default (10).
  uint64_t spill_block_entries = 0; // 0 = tier default (256).
  std::string checkpoint_dir;
  int64_t checkpoint_every_s = 0;
  bool resume = false;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      options->json = true;
    } else if (arg == "--matrix") {
      options->matrix = true;
    } else if (arg == "--no-scenarios") {
      options->scenarios = false;
    } else if (arg == "--broken-fixture") {
      options->broken_fixture = true;
    } else if (arg == "--unbounded-fixture") {
      options->unbounded_fixture = true;
    } else if (arg.rfind("--spec=", 0) == 0) {
      options->spec_filter = arg.substr(7);
    } else if (arg.rfind("--max-samples=", 0) == 0) {
      options->max_samples = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--domain-samples=", 0) == 0) {
      options->domain_samples = std::strtoull(arg.c_str() + 17, nullptr, 10);
    } else if (arg.rfind("--workers=", 0) == 0) {
      options->workers = std::atoi(arg.c_str() + 10);
      if (options->workers < 0) {
        std::fprintf(stderr, "--workers must be >= 0\n");
        return false;
      }
    } else if (arg.rfind("--explore=", 0) == 0) {
      if (!tlax::ParseExplorationPolicy(arg.substr(10), &options->explore)) {
        std::fprintf(stderr, "--explore must be 'level' or 'relaxed'\n");
        return false;
      }
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options->metrics_out = arg.substr(14);
    } else if (arg.rfind("--events-out=", 0) == 0) {
      options->events_out = arg.substr(13);
    } else if (arg.rfind("--serve=", 0) == 0) {
      options->serve_port = std::atoi(arg.c_str() + 8);
      if (options->serve_port < 0 || options->serve_port > 65535) {
        std::fprintf(stderr, "--serve must be a port in [0, 65535]\n");
        return false;
      }
    } else if (arg.rfind("--serve-linger-ms=", 0) == 0) {
      options->serve_linger_ms = std::atoll(arg.c_str() + 18);
    } else if (arg.rfind("--stall-timeout-ms=", 0) == 0) {
      options->stall_timeout_ms = std::atoll(arg.c_str() + 19);
    } else if (arg.rfind("--mem-budget-mb=", 0) == 0) {
      if (!tlax::ParseMemoryBudgetMb(arg.substr(16),
                                     &options->mem_budget_mb)) {
        std::fprintf(stderr, "--mem-budget-mb must be a whole number of "
                     "megabytes below 2^44\n");
        return false;
      }
    } else if (arg.rfind("--spill-dir=", 0) == 0) {
      options->spill_dir = arg.substr(12);
    } else if (arg.rfind("--spill-bloom-bits=", 0) == 0) {
      options->spill_bloom_bits =
          std::strtoull(arg.c_str() + 19, nullptr, 10);
      if (options->spill_bloom_bits < 1 || options->spill_bloom_bits > 64) {
        std::fprintf(stderr, "--spill-bloom-bits must be in [1, 64]\n");
        return false;
      }
    } else if (arg.rfind("--spill-block-size=", 0) == 0) {
      options->spill_block_entries =
          std::strtoull(arg.c_str() + 19, nullptr, 10);
      if (options->spill_block_entries < 16 ||
          options->spill_block_entries > 65536) {
        std::fprintf(stderr, "--spill-block-size must be in [16, 65536]\n");
        return false;
      }
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      options->checkpoint_dir = arg.substr(17);
    } else if (arg.rfind("--checkpoint-every-s=", 0) == 0) {
      options->checkpoint_every_s = std::atoll(arg.c_str() + 21);
    } else if (arg == "--resume") {
      options->resume = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

struct SpecSummary {
  std::string name;
  uint64_t sampled_states = 0;
  bool exhaustive = false;
  size_t commuting_pairs = 0;
  size_t action_pairs = 0;
  std::string matrix_text;
  // Bounded model-check pass.
  uint64_t check_distinct = 0;
  uint64_t check_generated = 0;
  int64_t check_diameter = 0;
  bool check_complete = false;
  int workers_used = 1;
  std::string exploration = "level";  // Policy the check actually used.
  uint64_t check_sccs = 0;  // Liveness structure: SCC count of the graph.
  std::string check_violation;  // Violated invariant name, or empty.
  // Abstract-domain pass.
  double state_bound = 0;  // Static budget; infinity when unbounded.
  bool domain_exhaustive = false;
  std::vector<std::string> unbounded_vars;
  size_t refined_commuting_pairs = 0;  // After value-sensitive refinement.
  std::string domain_text;
};

void LintOneSpec(const tlax::Spec& spec, const Options& options,
                 obs::Watchdog* watchdog, obs::ProgressTracker* progress,
                 analysis::DiagnosticReport* report,
                 std::vector<SpecSummary>* summaries) {
  analysis::FootprintOptions footprint_options;
  footprint_options.max_samples = options.max_samples;
  analysis::SpecFootprints footprints =
      analysis::InferFootprints(spec, footprint_options);
  report->Extend(analysis::LintSpec(spec, footprints));

  // Abstract-domain pass: per-variable value lattices, the static
  // state-space budget, and dead-spec diagnostics beyond what footprints
  // alone can see.
  analysis::DomainOptions domain_options;
  domain_options.max_samples = options.domain_samples;
  analysis::SpecDomains domains = analysis::InferDomains(spec, domain_options);
  report->Extend(analysis::LintDomains(spec, domains));

  analysis::RefinedIndependence refined =
      analysis::RefineIndependence(spec, footprints, domains);
  SpecSummary summary;
  summary.name = spec.name();
  summary.sampled_states = footprints.sampled_states;
  summary.exhaustive = footprints.exhaustive;
  summary.commuting_pairs = refined.base_commuting;
  summary.refined_commuting_pairs = refined.matrix.NumCommutingPairs();
  size_t n = spec.actions().size();
  summary.action_pairs = n * (n - 1) / 2;
  summary.state_bound = domains.StateBound();
  summary.domain_exhaustive = domains.exhaustive;
  for (size_t v : domains.UnboundedVars()) {
    summary.unbounded_vars.push_back(v < spec.variables().size()
                                         ? spec.variables()[v]
                                         : common::StrCat("#", v));
  }
  summary.domain_text = analysis::DomainsToText(spec, domains);
  if (options.matrix) {
    summary.matrix_text = analysis::IndependenceToText(spec, refined.matrix);
    for (const auto& [a, b] : refined.added) {
      summary.matrix_text += common::StrCat(
          "refined: ", spec.actions()[a].name, " <-> ",
          spec.actions()[b].name, " (value-sensitive)\n");
    }
  }

  // Bounded model check: smoke-test the dynamic semantics at the same
  // sampling budget the footprint probe uses. Violations are warnings
  // (lint is a static gate, not a verification run) and a budget overrun
  // just marks the pass incomplete. Under the level policy the graph is
  // recorded — at full --workers parallelism, now that recording no
  // longer clamps the worker count — so the pass also surfaces the
  // liveness structure (SCC count) of the explored fragment. Under
  // --explore=relaxed recording is skipped (it needs level barriers and
  // would clamp the policy back to level-sync) so the work-stealing
  // frontier is what actually runs.
  const bool relaxed =
      options.explore == tlax::ExplorationPolicy::kRelaxed;
  // Out-of-core requests also skip recording: spilling is incompatible
  // with record_graph (the graph pins every state in memory, which is
  // exactly what a memory budget says won't fit).
  const bool out_of_core = options.mem_budget_mb > 0 ||
                           !options.spill_dir.empty() ||
                           !options.checkpoint_dir.empty();
  tlax::CheckerOptions check_options;
  check_options.exploration = options.explore;
  check_options.num_workers = options.workers;
  check_options.max_distinct_states = options.max_samples;
  check_options.record_graph = !relaxed && !out_of_core;
  check_options.watchdog = watchdog;
  check_options.progress_reporter = progress;
  check_options.memory_budget_mb = options.mem_budget_mb;
  check_options.spill_bloom_bits = options.spill_bloom_bits;
  check_options.spill_block_entries = options.spill_block_entries;
  check_options.checkpoint_every_s = options.checkpoint_every_s;
  check_options.resume = options.resume;
  // Lint checks every registered spec in one invocation, and manifests
  // and run files are per-run, so each spec gets its own subdirectory.
  if (!options.spill_dir.empty()) {
    (void)common::EnsureDir(options.spill_dir);
    check_options.spill_dir =
        common::StrCat(options.spill_dir, "/", spec.name());
  }
  if (!options.checkpoint_dir.empty()) {
    (void)common::EnsureDir(options.checkpoint_dir);
    check_options.checkpoint_dir =
        common::StrCat(options.checkpoint_dir, "/", spec.name());
  }
  tlax::ModelChecker checker(check_options);
  tlax::CheckResult check = checker.Check(spec);
  summary.check_distinct = check.distinct_states;
  summary.check_generated = check.generated_states;
  summary.check_diameter = check.diameter;
  summary.check_complete = check.status.ok() && !check.violation.has_value();
  summary.workers_used = check.workers_used;
  summary.exploration = tlax::ExplorationPolicyName(check.policy_used);
  if (check.graph != nullptr && check.graph->num_states() > 0) {
    uint32_t num_sccs = 0;
    tlax::StronglyConnectedComponents(*check.graph, &num_sccs);
    summary.check_sccs = num_sccs;
  }
  if (check.violation.has_value()) {
    summary.check_violation = check.violation->kind;
    analysis::Diagnostic d;
    d.severity = analysis::Severity::kWarning;
    d.tool = "model-check";
    d.subject = spec.name();
    d.code = "invariant-violated";
    d.message = common::StrCat(
        "bounded model check violated ", check.violation->kind, " after ",
        check.violation->trace.size(), " step(s)");
    report->Add(std::move(d));
  }

  summaries->push_back(std::move(summary));
}

// Runs each base repl scenario with a lock-event observer on every node and
// feeds the per-node streams to the lock-order analysis.
void AnalyzeScenarioLocks(analysis::DiagnosticReport* report,
                          size_t* streams_analyzed) {
  for (const repl::Scenario& scenario : repl::BaseScenarios()) {
    repl::ReplicaSet rs(scenario.config);
    std::vector<std::vector<repl::LockEvent>> per_node(rs.num_nodes());
    for (int n = 0; n < rs.num_nodes(); ++n) {
      rs.node(n).lock_manager().SetEventObserver(
          [&per_node, n](const repl::LockEvent& event) {
            per_node[n].push_back(event);
          });
    }
    common::Status status = scenario.run(rs);
    if (!status.ok()) {
      analysis::Diagnostic d;
      d.severity = analysis::Severity::kWarning;
      d.tool = "lock-order";
      d.subject = scenario.name;
      d.code = "scenario-failed";
      d.message = common::StrCat("scenario did not complete: ",
                                 status.ToString());
      report->Add(std::move(d));
    }
    for (int n = 0; n < rs.num_nodes(); ++n) {
      if (per_node[n].empty()) continue;
      std::string subject = common::StrCat(scenario.name, "/node", n);
      analysis::LockOrderReport lock_report =
          analysis::AnalyzeLockOrder(per_node[n], subject);
      for (analysis::Diagnostic& d : lock_report.diagnostics) {
        report->Add(std::move(d));
      }
      ++*streams_analyzed;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;

  if (!options.events_out.empty()) {
    common::Status status =
        obs::EventLog::Global().OpenJsonlSink(options.events_out);
    if (!status.ok()) {
      std::fprintf(stderr, "events-out: %s\n", status.ToString().c_str());
      return 2;
    }
  }

  // Live observability plane: the bounded model-check pass heartbeats the
  // watchdog at each BFS level barrier and feeds the progress tracker, so
  // /healthz and /progress stay honest while the lint run works.
  obs::Watchdog watchdog(options.stall_timeout_ms);
  obs::ProgressTracker progress;
  obs::ObsServer::Options serve_options;
  serve_options.watchdog = &watchdog;
  serve_options.progress = &progress;
  obs::ObsServer server(serve_options);
  if (options.serve_port >= 0) {
    common::Status status = server.Start(options.serve_port);
    if (!status.ok()) {
      std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "serving observability on http://127.0.0.1:%d/\n",
                 server.port());
  }

  analysis::DiagnosticReport report;
  std::vector<SpecSummary> summaries;
  size_t lock_streams = 0;

  if (options.broken_fixture) {
    auto fixture = analysis::MakeBrokenFixtureSpec();
    LintOneSpec(*fixture, options, &watchdog, &progress, &report, &summaries);
  } else if (options.unbounded_fixture) {
    auto fixture = analysis::MakeUnboundedFixtureSpec();
    LintOneSpec(*fixture, options, &watchdog, &progress, &report, &summaries);
  } else {
    for (const analysis::RegisteredSpec& entry :
         analysis::RegisteredSpecs()) {
      if (!options.spec_filter.empty() &&
          entry.name.find(options.spec_filter) == std::string::npos) {
        continue;
      }
      auto spec = entry.make();
      LintOneSpec(*spec, options, &watchdog, &progress, &report, &summaries);
    }
    if (options.scenarios && options.spec_filter.empty()) {
      AnalyzeScenarioLocks(&report, &lock_streams);
    }
  }

  if (options.json) {
    common::Json out = report.ToJson();
    common::Json spec_list = common::Json::MakeArray();
    for (const SpecSummary& s : summaries) {
      common::Json entry = common::Json::MakeObject();
      entry.Set("name", common::Json::Str(s.name));
      entry.Set("sampled_states",
                common::Json::Int(static_cast<int64_t>(s.sampled_states)));
      entry.Set("exhaustive", common::Json::Bool(s.exhaustive));
      entry.Set("commuting_pairs",
                common::Json::Int(static_cast<int64_t>(s.commuting_pairs)));
      entry.Set("refined_commuting_pairs",
                common::Json::Int(
                    static_cast<int64_t>(s.refined_commuting_pairs)));
      entry.Set("action_pairs",
                common::Json::Int(static_cast<int64_t>(s.action_pairs)));
      // 0 encodes "unbounded" — a real budget is always >= 1.
      entry.Set("state_bound",
                common::Json::Int(std::isinf(s.state_bound)
                                      ? 0
                                      : static_cast<int64_t>(s.state_bound)));
      entry.Set("domain_exhaustive", common::Json::Bool(s.domain_exhaustive));
      common::Json unbounded = common::Json::MakeArray();
      for (const std::string& v : s.unbounded_vars) {
        unbounded.Append(common::Json::Str(v));
      }
      entry.Set("unbounded_vars", std::move(unbounded));
      entry.Set("check_distinct",
                common::Json::Int(static_cast<int64_t>(s.check_distinct)));
      entry.Set("check_generated",
                common::Json::Int(static_cast<int64_t>(s.check_generated)));
      entry.Set("check_diameter", common::Json::Int(s.check_diameter));
      entry.Set("check_complete", common::Json::Bool(s.check_complete));
      entry.Set("workers_used", common::Json::Int(s.workers_used));
      entry.Set("exploration", common::Json::Str(s.exploration));
      entry.Set("check_sccs",
                common::Json::Int(static_cast<int64_t>(s.check_sccs)));
      entry.Set("check_violation", common::Json::Str(s.check_violation));
      spec_list.Append(std::move(entry));
    }
    out.Set("specs", std::move(spec_list));
    out.Set("lock_streams",
            common::Json::Int(static_cast<int64_t>(lock_streams)));
    std::printf("%s\n", out.Dump().c_str());
  } else {
    for (const SpecSummary& s : summaries) {
      std::printf("spec %-18s %6llu reachable state(s) probed%s, "
                  "%zu/%zu action pair(s) commute\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.sampled_states),
                  s.exhaustive ? " (exhaustive)" : "",
                  s.commuting_pairs, s.action_pairs);
      std::printf("     check %-17s %6llu distinct / %llu generated, "
                  "diameter %lld, %llu scc(s), %d %s worker(s)%s%s%s\n",
                  "", static_cast<unsigned long long>(s.check_distinct),
                  static_cast<unsigned long long>(s.check_generated),
                  static_cast<long long>(s.check_diameter),
                  static_cast<unsigned long long>(s.check_sccs),
                  s.workers_used, s.exploration.c_str(),
                  s.check_complete ? " (complete)" : " (bounded)",
                  s.check_violation.empty() ? "" : ", violates ",
                  s.check_violation.c_str());
      std::printf("%s", s.domain_text.c_str());
      if (s.refined_commuting_pairs > s.commuting_pairs) {
        std::printf("  independence: %zu -> %zu commuting pair(s) after "
                    "value-sensitive refinement\n",
                    s.commuting_pairs, s.refined_commuting_pairs);
      }
      if (!s.matrix_text.empty()) std::printf("%s", s.matrix_text.c_str());
    }
    if (lock_streams > 0) {
      std::printf("lock-order: %zu per-node event stream(s) from the base "
                  "scenarios analyzed\n",
                  lock_streams);
    }
    std::printf("\n%s", report.ToText().c_str());
  }

  if (!options.metrics_out.empty()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("analysis.specs.linted").Increment(summaries.size());
    registry.GetCounter("analysis.lock_streams.analyzed")
        .Increment(lock_streams);
    registry.GetCounter("analysis.diagnostics.emitted")
        .Increment(report.diagnostics().size());
    for (const SpecSummary& s : summaries) {
      const std::string prefix = common::StrCat("analysis.domain.", s.name);
      // Gauge convention: state_bound == 0 means "unbounded" (a real
      // budget is always >= 1), so dashboards can alert on it directly.
      registry.GetGauge(common::StrCat(prefix, ".state_bound"))
          .Set(std::isinf(s.state_bound) ? 0 : s.state_bound);
      registry.GetGauge(common::StrCat(prefix, ".observed_distinct"))
          .Set(static_cast<double>(s.check_distinct));
      registry.GetGauge(common::StrCat(prefix, ".unbounded_vars"))
          .Set(static_cast<double>(s.unbounded_vars.size()));
      registry.GetGauge(common::StrCat(prefix, ".exhaustive"))
          .Set(s.domain_exhaustive ? 1 : 0);
    }
    common::Status status =
        obs::WriteMetricsJson(registry.Snapshot(), options.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", status.ToString().c_str());
      return 2;
    }
  }

  if (options.serve_port >= 0) {
    if (options.serve_linger_ms > 0) {
      server.WaitForQuit(options.serve_linger_ms);
    }
    server.Stop();
  }
  obs::EventLog::Global().CloseJsonlSink();
  return report.HasErrors() ? 1 : 0;
}
