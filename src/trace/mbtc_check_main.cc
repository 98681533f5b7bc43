// Command-line MBTC driver: read per-node trace log files from a directory
// (or generate them in-process from a named scenario) and check them against
// the RaftMongo specification — the "trace-checking built in where users
// only need to provide a trace and a specification" experience the paper
// asks TLC for (§6).
//
// Usage:
//   mbtc_check <log_directory> [flags]     check logs on disk
//   mbtc_check --scenario=NAME [flags]     run a library scenario, trace it,
//                                          and check the trace end to end
//   mbtc_check --list-scenarios            print scenario names and exit
//
// Flags it owns:
//   --abstract           check against the abstract spec variant
//   --no-stutter         disallow stuttering steps in the trace check
//
// It also takes every shared observability flag (--metrics-out,
// --trace-out, --events-out, --serve, --serve-linger-ms,
// --stall-timeout-ms). README.md "Shared flags" lists them all. The
// per-step search is serial, so it takes no --workers.
//
// Exits 0 when the trace passes, 1 on a violation, and 2 on an unknown flag,
// a bad value, a pipeline error, or a check that could not decide (a step's
// search ran out of budget before the trace stopped matching).

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "obs/session.h"
#include "obs/span.h"
#include "repl/scenarios.h"
#include "specs/raft_mongo_spec.h"
#include "trace/mbtc_pipeline.h"
#include "trace/trace_logger.h"

namespace {

using namespace xmodel;  // NOLINT — main binary only.

struct Options {
  std::string log_directory;
  std::string scenario;
  bool list_scenarios = false;
  bool abstract_variant = false;
  bool stutter = true;
  obs::SessionOptions obs;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <log_directory>|--scenario=NAME [flags]\n"
               "       %s --list-scenarios\n",
               argv0, argv0);
}

common::FlagResult ParseMbtcFlag(std::string_view arg, Options* options) {
  std::string_view value;
  if (arg == "--abstract") {
    options->abstract_variant = true;
  } else if (arg == "--no-stutter") {
    options->stutter = false;
  } else if (arg == "--list-scenarios") {
    options->list_scenarios = true;
  } else if (common::MatchFlag(arg, "--scenario", &value)) {
    options->scenario = std::string(value);
  } else if (!arg.empty() && arg[0] != '-' &&
             options->log_directory.empty()) {
    options->log_directory = std::string(arg);
  } else {
    return common::FlagResult::kUnknown;
  }
  return common::FlagResult::kParsed;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!common::ParseFlags(
          argc, argv, "mbtc_check",
          {[&](std::string_view arg, std::string*) {
             return ParseMbtcFlag(arg, &options);
           },
           obs::SessionFlags(obs::kAllSessionFlags, &options.obs)})) {
    Usage(argv[0]);
    return 2;
  }
  if (options.list_scenarios) {
    for (const repl::Scenario& s : repl::AllScenarios()) {
      std::printf("%s\n", s.name.c_str());
    }
    return 0;
  }
  if (options.scenario.empty() == options.log_directory.empty()) {
    Usage(argv[0]);
    return 2;
  }
  // Live observability plane: stand up the HTTP endpoints before any real
  // work so a scraper can watch the whole run, and arm the watchdog that
  // the pipeline heartbeats at each phase boundary.
  obs::Session session(options.obs);
  common::Status started = session.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "mbtc_check: %s\n", started.ToString().c_str());
    return 2;
  }

  // Resolve the log files: from disk, or by running a library scenario
  // in-process with tracing attached (the paper's Figure 1 front half).
  std::vector<std::vector<std::string>> files;
  int num_nodes = 0;
  if (!options.scenario.empty()) {
    XMODEL_SPAN("mbtc.scenario");
    const std::vector<repl::Scenario> all = repl::AllScenarios();
    const repl::Scenario* found = nullptr;
    for (const repl::Scenario& s : all) {
      if (s.name == options.scenario) {
        found = &s;
        break;
      }
    }
    if (found == nullptr) {
      std::fprintf(stderr,
                   "no scenario named %s (try --list-scenarios)\n",
                   options.scenario.c_str());
      return 2;
    }
    repl::ReplicaSet rs(found->config);
    trace::TraceLogger logger(&rs.clock());
    rs.AttachTraceSink(&logger);
    common::Status run_status = found->run(rs);
    if (!run_status.ok()) {
      std::fprintf(stderr, "scenario %s failed: %s\n", found->name.c_str(),
                   run_status.ToString().c_str());
      (void)session.Finish();
      return 2;
    }
    num_nodes = rs.num_nodes();
    files = logger.LogFiles(num_nodes);
  } else {
    auto read = trace::TraceLogger::ReadLogFiles(options.log_directory);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
      return 2;
    }
    files = *std::move(read);
    num_nodes = static_cast<int>(files.size());
  }

  specs::RaftMongoConfig config;
  config.variant = options.abstract_variant
                       ? specs::RaftMongoVariant::kAbstract
                       : specs::RaftMongoVariant::kDetailed;
  config.num_nodes = num_nodes;
  config.max_term = 1'000'000;
  config.max_oplog_len = 1'000'000;
  specs::RaftMongoSpec spec(config);

  trace::MbtcPipelineOptions pipeline_options;
  pipeline_options.checker.allow_stuttering = options.stutter;
  // The checker heartbeats per search layer and per live flush (on top of
  // the pipeline's per-phase beats), so /healthz stays live inside a long
  // trace-check phase.
  pipeline_options.checker.watchdog = session.watchdog();
  pipeline_options.watchdog = session.watchdog();
  trace::MbtcPipeline pipeline(&spec, pipeline_options);
  trace::MbtcReport report = pipeline.Run(files);

  int exit_code = 0;
  if (!report.status.ok()) {
    std::fprintf(stderr, "pipeline error: %s\n",
                 report.status.ToString().c_str());
    exit_code = 2;
  } else if (report.passed()) {
    std::printf("PASS: %llu events form a behavior of %s\n",
                static_cast<unsigned long long>(report.num_events),
                spec.name().c_str());
  } else if (report.check.status.code() !=
             common::StatusCode::kFailedPrecondition) {
    // Not a verdict: e.g. the search ran out of budget (ResourceExhausted).
    std::fprintf(stderr, "trace check incomplete at step %zu of %llu: %s\n",
                 report.check.failed_step,
                 static_cast<unsigned long long>(report.num_events),
                 report.check.status.ToString().c_str());
    exit_code = 2;
  } else {
    std::printf("VIOLATION at step %zu of %llu: %s\n",
                report.check.failed_step,
                static_cast<unsigned long long>(report.num_events),
                report.check.status.message().c_str());
    exit_code = 1;
  }

  common::Status finished = session.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "mbtc_check: %s\n", finished.ToString().c_str());
    if (exit_code == 0) exit_code = 2;
  }
  return exit_code;
}
