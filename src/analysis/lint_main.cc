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
//   xmodel_lint --max-samples=N  state budget of the footprint probe and
//                                the bounded model-check pass (default
//                                4096)
//   xmodel_lint --domain-samples=N  state budget for the abstract-domain
//                                   probe (default 262144)
//
// It also takes every shared checker flag (--workers, --mem-budget-mb,
// --spill-dir, --checkpoint-dir, --checkpoint-every-s, --resume) for the
// bounded model-check pass, and the shared observability flags
// --metrics-out, --events-out, --serve, --serve-linger-ms and
// --stall-timeout-ms; README.md "Shared flags" lists them all. Lint
// checks every registered spec in one invocation, so --spill-dir and
// --checkpoint-dir get one subdirectory per spec. Under any out-of-core
// flag the pass skips graph recording (the graph pins every state), so
// SCC counts read 0 there.
//
// Besides the static passes, each spec gets a bounded model check (capped
// at --max-samples distinct states) so the lint run also smoke-tests the
// dynamic semantics; invariant violations surface as warning-severity
// diagnostics and never change the exit status.
//
// Exit status: 0 when no error-severity diagnostic was produced, 1 when
// one was, 2 on an unknown flag, a bad flag value, or an output failure.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
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
#include "obs/metrics.h"
#include "obs/session.h"
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
  std::string spec_filter;
  tlax::CheckerOptions checker;
  obs::SessionOptions obs;
};

common::FlagResult ParseLintFlag(std::string_view arg, Options* options,
                                 std::string* error) {
  constexpr uint64_t kMaxSamples = std::numeric_limits<uint64_t>::max();
  std::string_view value;
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
  } else if (common::MatchFlag(arg, "--spec", &value)) {
    options->spec_filter = std::string(value);
  } else if (common::MatchFlag(arg, "--max-samples", &value)) {
    return common::ParseIntegerFlag("--max-samples", value, uint64_t{1},
                                    kMaxSamples, &options->max_samples, error);
  } else if (common::MatchFlag(arg, "--domain-samples", &value)) {
    return common::ParseIntegerFlag("--domain-samples", value, uint64_t{1},
                                    kMaxSamples, &options->domain_samples,
                                    error);
  } else {
    return common::FlagResult::kUnknown;
  }
  return common::FlagResult::kParsed;
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
  double check_collision_probability = 0;
  bool check_complete = false;
  int workers_used = 1;
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
  // just marks the pass incomplete. The graph is recorded at full
  // --workers parallelism, so the pass also surfaces the liveness
  // structure (SCC count) of the explored fragment. Out-of-core requests
  // skip recording: spilling is incompatible with record_graph (the graph
  // pins every state in memory, which is exactly what a memory budget
  // says won't fit).
  tlax::CheckerOptions check_options = options.checker;
  const bool out_of_core = check_options.memory_budget_mb > 0 ||
                           !check_options.spill_dir.empty() ||
                           !check_options.checkpoint_dir.empty();
  check_options.max_distinct_states = options.max_samples;
  check_options.record_graph = !out_of_core;
  // Manifests and run files are per-run, so each spec gets its own
  // subdirectory.
  for (std::string* dir :
       {&check_options.spill_dir, &check_options.checkpoint_dir}) {
    if (dir->empty()) continue;
    (void)common::EnsureDir(*dir);
    *dir = common::StrCat(*dir, "/", spec.name());
  }
  tlax::ModelChecker checker(check_options);
  tlax::CheckResult check = checker.Check(spec);
  summary.check_distinct = check.distinct_states;
  summary.check_generated = check.generated_states;
  summary.check_diameter = check.diameter;
  summary.check_collision_probability = check.fingerprint_collision_probability;
  summary.check_complete = check.status.ok() && !check.violation.has_value();
  summary.workers_used = check.workers_used;
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
  if (!common::ParseFlags(
          argc, argv, "xmodel_lint",
          {[&](std::string_view arg, std::string* error) {
             return ParseLintFlag(arg, &options, error);
           },
           tlax::CheckerFlags(tlax::kAllCheckerFlags, &options.checker),
           obs::SessionFlags(obs::kAllSessionFlags & ~obs::kTraceOutFlag,
                             &options.obs)})) {
    return 2;
  }

  // Live observability plane: the bounded model-check pass heartbeats the
  // watchdog at each BFS level barrier and feeds the progress tracker, so
  // /healthz and /progress stay honest while the lint run works.
  obs::Session session(options.obs);
  common::Status started = session.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "xmodel_lint: %s\n", started.ToString().c_str());
    return 2;
  }
  options.checker.watchdog = session.watchdog();
  options.checker.progress_reporter = session.progress();

  analysis::DiagnosticReport report;
  std::vector<SpecSummary> summaries;
  size_t lock_streams = 0;

  if (options.broken_fixture) {
    auto fixture = analysis::MakeBrokenFixtureSpec();
    LintOneSpec(*fixture, options, &report, &summaries);
  } else if (options.unbounded_fixture) {
    auto fixture = analysis::MakeUnboundedFixtureSpec();
    LintOneSpec(*fixture, options, &report, &summaries);
  } else {
    for (const analysis::RegisteredSpec& entry :
         analysis::RegisteredSpecs()) {
      if (!options.spec_filter.empty() &&
          entry.name.find(options.spec_filter) == std::string::npos) {
        continue;
      }
      auto spec = entry.make();
      LintOneSpec(*spec, options, &report, &summaries);
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
      entry.Set("check_collision_probability",
                common::Json::Double(s.check_collision_probability));
      entry.Set("check_complete", common::Json::Bool(s.check_complete));
      entry.Set("workers_used", common::Json::Int(s.workers_used));
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
                  "diameter %lld, %llu scc(s), %d worker(s)%s%s%s\n",
                  "", static_cast<unsigned long long>(s.check_distinct),
                  static_cast<unsigned long long>(s.check_generated),
                  static_cast<long long>(s.check_diameter),
                  static_cast<unsigned long long>(s.check_sccs),
                  s.workers_used,
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

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("analysis.specs.linted").Increment(summaries.size());
  registry.GetCounter("analysis.lock_streams.analyzed").Increment(lock_streams);
  registry.GetCounter("analysis.diagnostics.emitted")
      .Increment(report.diagnostics().size());
  for (const SpecSummary& s : summaries) {
    const std::string prefix = common::StrCat("analysis.domain.", s.name);
    // Gauge convention: state_bound == 0 means "unbounded" (a real budget
    // is always >= 1), so dashboards can alert on it directly.
    registry.GetGauge(common::StrCat(prefix, ".state_bound"))
        .Set(std::isinf(s.state_bound) ? 0 : s.state_bound);
    registry.GetGauge(common::StrCat(prefix, ".observed_distinct"))
        .Set(static_cast<double>(s.check_distinct));
    registry.GetGauge(common::StrCat(prefix, ".unbounded_vars"))
        .Set(static_cast<double>(s.unbounded_vars.size()));
    registry.GetGauge(common::StrCat(prefix, ".exhaustive"))
        .Set(s.domain_exhaustive ? 1 : 0);
  }
  common::Status finished = session.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "xmodel_lint: %s\n", finished.ToString().c_str());
    return 2;
  }
  return report.HasErrors() ? 1 : 0;
}
