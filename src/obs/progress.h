#ifndef XMODEL_OBS_PROGRESS_H_
#define XMODEL_OBS_PROGRESS_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "common/json.h"

namespace xmodel::obs {

/// One progress observation from a running model check — the TLC-style
/// periodic status line's payload.
struct CheckerProgress {
  uint64_t generated_states = 0;
  uint64_t distinct_states = 0;
  uint64_t frontier_size = 0;  // States left on the BFS queue.
  int64_t depth = 0;           // Deepest layer reached so far.
  double seconds = 0;          // Wall time since the check started.
  /// Generation rate over the last reporting interval (not cumulative).
  double states_per_sec = 0;
  /// Fingerprint (seen-states) hash-table load factor.
  double fingerprint_load = 0;
  /// True for the single final report emitted when the check ends.
  bool final_report = false;
};

/// Interval-driven observer of a model-checking run. Off by default; wire
/// one into CheckerOptions::progress_reporter to enable. The parallel
/// checker designates one worker as the reporting thread, so Report() is
/// never called concurrently by a single run — but a reporter shared
/// across concurrent Check() calls must be thread-safe
/// (TextProgressReporter is).
class ProgressReporter {
 public:
  virtual ~ProgressReporter() = default;
  virtual void Report(const CheckerProgress& progress) = 0;
};

/// Prints TLC-style progress lines:
///   progress: 123456 states generated (45678 s/sec), 9999 distinct,
///             321 on queue, depth 12, fp load 0.43
/// Writes to a FILE* (default stderr) or, for tests, appends to a string.
/// Thread-safe: a mutex serializes sink writes, so one reporter can be
/// shared by concurrent checker runs without interleaving lines.
class TextProgressReporter : public ProgressReporter {
 public:
  explicit TextProgressReporter(std::FILE* out = stderr) : out_(out) {}
  explicit TextProgressReporter(std::string* sink) : sink_(sink) {}

  void Report(const CheckerProgress& progress) override;

  /// Formats one progress line (no trailing newline) — shared by both
  /// sinks and handy for golden tests.
  static std::string FormatLine(const CheckerProgress& progress);

 private:
  std::mutex mu_;
  std::FILE* out_ = nullptr;
  std::string* sink_ = nullptr;
};

/// Remembers the latest CheckerProgress (and forwards to an optional inner
/// reporter) so the live observability plane can serve it: the /progress
/// HTTP endpoint renders Latest() as the `xmodel.progress.v1` document.
/// Thread-safe — one tracker can be shared by concurrent checker runs,
/// though concurrent runs then interleave whose progress is "latest".
class ProgressTracker : public ProgressReporter {
 public:
  explicit ProgressTracker(ProgressReporter* next = nullptr) : next_(next) {}

  void Report(const CheckerProgress& progress) override;

  CheckerProgress Latest() const;
  /// Total Report() calls / final reports seen across all runs.
  uint64_t reports() const;
  uint64_t runs_completed() const;

  /// {"schema":"xmodel.progress.v1","reports":N,"runs_completed":N,
  ///  "generated_states":...,...} — the latest observation plus counters;
  /// all-zero fields before the first report.
  common::Json ToJson() const;

 private:
  mutable std::mutex mu_;
  ProgressReporter* next_;
  CheckerProgress latest_;
  uint64_t reports_ = 0;
  uint64_t runs_completed_ = 0;
};

}  // namespace xmodel::obs

#endif  // XMODEL_OBS_PROGRESS_H_
