#include "obs/session.h"

#include <cstdio>
#include <utility>

#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace xmodel::obs {

namespace {

using common::FlagResult;

// Longest linger or stall threshold a flag may ask for: one week.
constexpr int64_t kMaxFlagMs = int64_t{7} * 24 * 3600 * 1000;

common::Status Prefixed(std::string_view flag, const common::Status& status) {
  if (status.ok()) return status;
  return common::Status(status.code(),
                        common::StrCat(flag, ": ", status.message()));
}

}  // namespace

common::FlagParser SessionFlags(unsigned accepted, SessionOptions* options) {
  return [accepted, options](std::string_view arg, std::string* error) {
    std::string_view value;
    auto is = [&](unsigned bit, std::string_view name) {
      return (accepted & bit) != 0 && common::MatchFlag(arg, name, &value);
    };
    if (is(kMetricsOutFlag, "--metrics-out")) {
      return common::ParsePathFlag("--metrics-out", value,
                                   &options->metrics_out, error);
    }
    if (is(kTraceOutFlag, "--trace-out")) {
      return common::ParsePathFlag("--trace-out", value, &options->trace_out,
                                   error);
    }
    if (is(kEventsOutFlag, "--events-out")) {
      return common::ParsePathFlag("--events-out", value,
                                   &options->events_out, error);
    }
    if (is(kServeFlag, "--serve")) {
      return common::ParseIntegerFlag("--serve", value, 0, 65535,
                                      &options->serve_port, error);
    }
    if (is(kServeLingerFlag, "--serve-linger-ms")) {
      return common::ParseIntegerFlag("--serve-linger-ms", value, int64_t{0},
                                      kMaxFlagMs, &options->serve_linger_ms,
                                      error);
    }
    if (!is(kStallTimeoutFlag, "--stall-timeout-ms")) {
      return FlagResult::kUnknown;
    }
    return common::ParseIntegerFlag("--stall-timeout-ms", value, int64_t{1},
                                    kMaxFlagMs, &options->stall_timeout_ms,
                                    error);
  };
}

Session::Session(SessionOptions options)
    : options_(std::move(options)), watchdog_(options_.stall_timeout_ms) {}

Session::~Session() { Stop(); }

common::Status Session::Start() {
  if (!options_.trace_out.empty()) SpanTracer::Global().Enable();
  if (!options_.events_out.empty()) {
    common::Status status =
        EventLog::Global().OpenJsonlSink(options_.events_out);
    if (!status.ok()) return Prefixed("--events-out", status);
    sink_open_ = true;
  }
  if (options_.serve_port >= 0) {
    server_.emplace(
        ObsServer::Options{.watchdog = &watchdog_, .progress = &progress_});
    common::Status status = server_->Start(options_.serve_port);
    if (!status.ok()) {
      server_.reset();
      return Prefixed("--serve", status);
    }
    std::fprintf(stderr, "serving observability on http://127.0.0.1:%d/\n",
                 server_->port());
  }
  return common::Status::OK();
}

common::Status Session::Finish() {
  common::Status result;
  if (!options_.metrics_out.empty()) {
    result = Prefixed("--metrics-out",
                      WriteMetricsJson(MetricsRegistry::Global().Snapshot(),
                                       options_.metrics_out));
  }
  if (!options_.trace_out.empty()) {
    common::Status status = Prefixed(
        "--trace-out",
        SpanTracer::Global().WriteChromeJson(options_.trace_out));
    if (result.ok()) result = status;
  }
  // Keep the endpoints up so a scraper can read the finished run's final
  // metrics and events; /quitquitquit releases the linger early.
  if (server_ && options_.serve_linger_ms > 0) {
    server_->WaitForQuit(options_.serve_linger_ms);
  }
  Stop();
  return result;
}

void Session::Stop() {
  // Join the listener before the handlers' ObsServer members go away.
  if (server_) server_->Stop();
  server_.reset();
  if (sink_open_) EventLog::Global().CloseJsonlSink();
  sink_open_ = false;
}

}  // namespace xmodel::obs
