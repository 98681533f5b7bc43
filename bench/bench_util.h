// Shared harness for the experiment benches: flag parsing, a run timer,
// and a BENCH_<name>.json report carrying the full metrics-registry
// snapshot plus per-bench result values — the artifact shape CI uploads
// and tools/validate_metrics.py checks.
//
// Harness flags: --quick (the CI smoke configuration) and the shared
// observability flags --metrics-out=FILE (the report path),
// --serve=PORT, --serve-linger-ms=N and --events-out=FILE (README.md
// "Shared flags"). A bench that owns flags of its own passes a FlagHook;
// any other argument, or a bad value, exits 2.
//
// Usage:
//   int main(int argc, char** argv) {
//     xmodel::bench::Harness bench("state_space", argc, argv);
//     if (!setup.ok()) return bench.Fail(setup.ToString());
//     ...
//     bench.AddResult("states", static_cast<double>(n));
//     return bench.Finish(exit_code);
//   }

#ifndef XMODEL_BENCH_BENCH_UTIL_H_
#define XMODEL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/status.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/session.h"

namespace xmodel::bench {

class Harness {
 public:
  /// Parses argv (exiting 2 on an unknown flag or a bad value), starts
  /// the observability session and the run timer. `bench_flags` parses the
  /// flags the bench owns, if any.
  Harness(const char* name, int argc, char** argv,
          const common::FlagParser& bench_flags = nullptr)
      : name_(name) {
    obs::SessionOptions obs_options;
    std::vector<common::FlagParser> parsers = {
        [this](std::string_view arg, std::string*) {
          if (arg != "--quick") return common::FlagResult::kUnknown;
          quick_ = true;
          return common::FlagResult::kParsed;
        },
        obs::SessionFlags(obs::kMetricsOutFlag | obs::kEventsOutFlag |
                              obs::kServeFlag | obs::kServeLingerFlag,
                          &obs_options)};
    if (bench_flags) parsers.push_back(bench_flags);
    if (!common::ParseFlags(argc, argv, common::StrCat("BENCH ", name),
                            parsers)) {
      std::exit(2);
    }
    // The report takes --metrics-out's place: it embeds the snapshot.
    out_path_ = obs_options.metrics_out.empty()
                    ? common::StrCat("BENCH_", name, ".json")
                    : obs_options.metrics_out;
    obs_options.metrics_out.clear();
    session_.emplace(std::move(obs_options));
    common::Status status = session_->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "BENCH %s: %s\n", name, status.ToString().c_str());
      std::exit(2);
    }
    start_ns_ = common::MonotonicClock::Real()->NowNanos();
  }

  /// Lingers while serving (--serve-linger-ms), then stops the session.
  ~Harness() { (void)session_->Finish(); }

  bool quick() const { return quick_; }
  /// Wire these into CheckerOptions (watchdog/progress_reporter) so the
  /// live endpoints track the bench's checker runs.
  obs::Watchdog* watchdog() { return session_->watchdog(); }
  obs::ProgressTracker* progress() { return session_->progress(); }

  /// Records one headline number (or string) for the report's "results"
  /// object.
  void AddResult(const std::string& key, double value) {
    results_.emplace_back(key, common::Json::Double(value));
  }
  void AddResult(const std::string& key, const std::string& value) {
    results_.emplace_back(key, common::Json::Str(value));
  }

  /// Setup failed: report it, still write the JSON (with the error
  /// recorded) so CI artifacts show what went wrong, and return a nonzero
  /// exit code for main.
  int Fail(const std::string& message) {
    std::fprintf(stderr, "BENCH %s setup failed: %s\n", name_.c_str(),
                 message.c_str());
    error_ = message;
    WriteReport(/*exit_code=*/2);
    return 2;
  }

  /// Normal completion: writes BENCH_<name>.json and passes `exit_code`
  /// through (or 2 if the report itself cannot be written).
  int Finish(int exit_code) {
    if (!WriteReport(exit_code) && exit_code == 0) exit_code = 2;
    return exit_code;
  }

 private:
  bool WriteReport(int exit_code) {
    const double seconds =
        static_cast<double>(common::MonotonicClock::Real()->NowNanos() -
                            start_ns_) *
        1e-9;
    obs::MetricsRegistry::Global()
        .GetGauge(common::StrCat("bench.", name_, ".run.seconds"))
        .Set(seconds);

    common::Json doc = obs::ToJson(obs::MetricsRegistry::Global().Snapshot());
    doc.Set("bench", common::Json::Str(name_));
    doc.Set("quick", common::Json::Bool(quick_));
    doc.Set("exit_code", common::Json::Int(exit_code));
    doc.Set("wall_seconds", common::Json::Double(seconds));
    if (!error_.empty()) doc.Set("error", common::Json::Str(error_));
    common::Json results = common::Json::MakeObject();
    for (auto& [key, value] : results_) results.Set(key, std::move(value));
    doc.Set("results", std::move(results));

    common::Status status = obs::WriteJsonFile(doc, out_path_);
    if (!status.ok()) {
      std::fprintf(stderr, "BENCH %s: cannot write %s: %s\n", name_.c_str(),
                   out_path_.c_str(), status.ToString().c_str());
      return false;
    }
    std::fprintf(stderr, "BENCH %s: report written to %s\n", name_.c_str(),
                 out_path_.c_str());
    return true;
  }

  std::string name_;
  std::string out_path_;
  bool quick_ = false;
  int64_t start_ns_ = 0;
  std::string error_;
  std::vector<std::pair<std::string, common::Json>> results_;
  std::optional<obs::Session> session_;
};

}  // namespace xmodel::bench

#endif  // XMODEL_BENCH_BENCH_UTIL_H_
