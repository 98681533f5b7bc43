#ifndef XMODEL_OBS_SESSION_H_
#define XMODEL_OBS_SESSION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/strings.h"
#include "obs/http.h"
#include "obs/progress.h"
#include "obs/watchdog.h"

namespace xmodel::obs {

/// The observability flags the CLIs and benches share. Each binary
/// accepts a subset, passed to SessionFlags as a mask of these bits.
enum SessionFlag : unsigned {
  kMetricsOutFlag = 1u << 0,      // --metrics-out=FILE
  kTraceOutFlag = 1u << 1,        // --trace-out=FILE
  kEventsOutFlag = 1u << 2,       // --events-out=FILE
  kServeFlag = 1u << 3,           // --serve=PORT: [0, 65535], 0 = ephemeral
  kServeLingerFlag = 1u << 4,     // --serve-linger-ms=N: [0, 604800000]
  kStallTimeoutFlag = 1u << 5,    // --stall-timeout-ms=N: [1, 604800000]
  kAllSessionFlags = (1u << 6) - 1,
};

/// Empty paths and serve_port -1 turn the matching output off.
struct SessionOptions {
  std::string metrics_out;  // Registry snapshot, written at Finish.
  std::string trace_out;    // Chrome trace_event JSON of the spans.
  std::string events_out;   // JSONL event sink (xmodel.events.v1).
  int serve_port = -1;      // ObsServer on 127.0.0.1.
  int64_t serve_linger_ms = 0;
  int64_t stall_timeout_ms = 30'000;  // Watchdog threshold for /healthz.
};

/// The shared observability-flag parser for common::ParseFlags: stores
/// the value of a flag in `accepted` in `*options`. Any other argument is
/// kUnknown; a bad value is kBad with `*options` untouched and the error
/// naming the flag.
common::FlagParser SessionFlags(unsigned accepted, SessionOptions* options);

/// One run's observability plane: owns the stall watchdog, the progress
/// tracker and the HTTP server, and drives the lifecycle every binary
/// shares — Start() before the work, Finish() after it.
class Session {
 public:
  explicit Session(SessionOptions options);
  /// Stops the server and closes the event sink if Finish() did not.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Turns span recording on for trace_out, attaches the events_out
  /// sink, and starts the server (printing its URL to stderr). Returns
  /// the first failure, prefixed with the flag that asked for it.
  common::Status Start();

  /// Writes metrics_out and trace_out, lingers while serving, then stops
  /// the server and closes the sink. Every step runs; the first write
  /// failure is returned, prefixed with its flag.
  common::Status Finish();

  /// For CheckerOptions::watchdog / progress_reporter.
  Watchdog* watchdog() { return &watchdog_; }
  ProgressTracker* progress() { return &progress_; }

 private:
  void Stop();

  const SessionOptions options_;
  Watchdog watchdog_;
  ProgressTracker progress_;
  std::optional<ObsServer> server_;  // Only while serving.
  bool sink_open_ = false;
};

}  // namespace xmodel::obs

#endif  // XMODEL_OBS_SESSION_H_
