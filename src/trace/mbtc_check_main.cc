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
// Flags:
//   --abstract           check against the abstract spec variant
//   --no-stutter         disallow stuttering steps in the trace check
//   --workers=N          trace-check expansion workers (0 = all cores);
//                        results are identical across worker counts
//   --metrics-out=FILE   write a metrics-registry snapshot as JSON
//                        (crash-safe: temp file + atomic rename)
//   --trace-out=FILE     record spans and write Chrome trace_event JSON
//   --events-out=FILE    append structured events as JSONL (xmodel.events.v1)
//   --serve=PORT         live observability plane on 127.0.0.1:PORT
//                        (/metrics /healthz /progress /events; 0 picks an
//                        ephemeral port, printed on startup)
//   --serve-linger-ms=N  after the check finishes, keep serving for up to
//                        N ms or until GET /quitquitquit — lets a scraper
//                        collect the final state of a fast run
//   --stall-timeout-ms=N watchdog stall threshold for /healthz (default
//                        30000)
//   --mem-budget-mb=N    approximate memory bound for the per-step
//                        hidden-state search: tightens the per-step node
//                        budget to ~N MB worth of states (the trace
//                        checker keeps full states resident, so it caps
//                        rather than spills; see --mem-budget-mb on
//                        xmodel_lint for the spilling model checker)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "repl/scenarios.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"
#include "trace/mbtc_pipeline.h"
#include "trace/trace_logger.h"

namespace {

using namespace xmodel;  // NOLINT — main binary only.

struct Options {
  std::string log_directory;
  std::string scenario;
  std::string metrics_out;
  std::string trace_out;
  std::string events_out;
  bool list_scenarios = false;
  bool abstract_variant = false;
  bool stutter = true;
  int workers = 1;
  uint64_t mem_budget_mb = 0;
  int serve_port = -1;  // -1 = no HTTP server.
  int64_t serve_linger_ms = 0;
  int64_t stall_timeout_ms = 30'000;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <log_directory> [--abstract] [--no-stutter]\n"
               "           [--workers=N] [--mem-budget-mb=N]\n"
               "           [--metrics-out=FILE] [--trace-out=FILE]\n"
               "           [--events-out=FILE] [--serve=PORT] "
               "[--serve-linger-ms=N]\n"
               "           [--stall-timeout-ms=N]\n"
               "       %s --scenario=NAME [flags]\n"
               "       %s --list-scenarios\n",
               argv0, argv0, argv0);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--abstract") {
      options->abstract_variant = true;
    } else if (arg == "--no-stutter") {
      options->stutter = false;
    } else if (arg == "--list-scenarios") {
      options->list_scenarios = true;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      options->scenario = arg.substr(11);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options->metrics_out = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options->trace_out = arg.substr(12);
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
    } else if (arg.rfind("--workers=", 0) == 0) {
      options->workers = std::atoi(arg.c_str() + 10);
      if (options->workers < 0) {
        std::fprintf(stderr, "--workers must be >= 0\n");
        return false;
      }
    } else if (arg.rfind("--mem-budget-mb=", 0) == 0) {
      if (!tlax::ParseMemoryBudgetMb(arg.substr(16),
                                     &options->mem_budget_mb)) {
        std::fprintf(stderr, "--mem-budget-mb must be a whole number of "
                     "megabytes below 2^44\n");
        return false;
      }
    } else if (!arg.empty() && arg[0] != '-' &&
               options->log_directory.empty()) {
      options->log_directory = arg;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Writes the requested observability outputs; returns false (with a
/// message) when a file cannot be written.
bool WriteObsOutputs(const Options& options) {
  bool ok = true;
  if (!options.metrics_out.empty()) {
    common::Status status = obs::WriteMetricsJson(
        obs::MetricsRegistry::Global().Snapshot(), options.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", status.ToString().c_str());
      ok = false;
    }
  }
  if (!options.trace_out.empty()) {
    common::Status status =
        obs::SpanTracer::Global().WriteChromeJson(options.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", status.ToString().c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
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
  if (!options.trace_out.empty()) obs::SpanTracer::Global().Enable();
  if (!options.events_out.empty()) {
    common::Status status =
        obs::EventLog::Global().OpenJsonlSink(options.events_out);
    if (!status.ok()) {
      std::fprintf(stderr, "events-out: %s\n", status.ToString().c_str());
      return 2;
    }
  }

  // Live observability plane: stand up the HTTP endpoints before any real
  // work so a scraper can watch the whole run, and arm the watchdog that
  // the pipeline heartbeats at each phase boundary.
  obs::Watchdog watchdog(options.stall_timeout_ms);
  obs::ObsServer::Options serve_options;
  serve_options.watchdog = &watchdog;
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
      WriteObsOutputs(options);
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
  pipeline_options.checker.num_workers = options.workers;
  pipeline_options.checker.memory_budget_mb = options.mem_budget_mb;
  // The checker heartbeats per drained expansion batch (on top of the
  // pipeline's per-phase beats), so /healthz stays live inside a long
  // trace-check phase.
  pipeline_options.checker.watchdog = &watchdog;
  pipeline_options.watchdog = &watchdog;
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
  } else {
    std::printf("VIOLATION at step %zu of %llu: %s\n",
                report.check.failed_step,
                static_cast<unsigned long long>(report.num_events),
                report.check.status.message().c_str());
    exit_code = 1;
  }

  if (!WriteObsOutputs(options) && exit_code == 0) exit_code = 2;
  if (options.serve_port >= 0) {
    // Keep the endpoints up so a scraper can read the finished run's
    // final metrics/events; /quitquitquit releases the linger early.
    if (options.serve_linger_ms > 0) {
      server.WaitForQuit(options.serve_linger_ms);
    }
    server.Stop();
  }
  obs::EventLog::Global().CloseJsonlSink();
  return exit_code;
}
