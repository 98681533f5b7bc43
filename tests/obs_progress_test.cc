#include "obs/progress.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"

namespace xmodel {
namespace {

TEST(ProgressFormatTest, GoldenLines) {
  obs::CheckerProgress p;
  p.generated_states = 123456;
  p.distinct_states = 9999;
  p.frontier_size = 321;
  p.depth = 12;
  p.states_per_sec = 45678;
  p.fingerprint_load = 0.43;
  EXPECT_EQ(obs::TextProgressReporter::FormatLine(p),
            "progress: 123456 states generated (45678 s/sec), 9999 distinct, "
            "321 on queue, depth 12, fp load 0.43");

  p.final_report = true;
  p.seconds = 2.5;
  p.frontier_size = 0;
  EXPECT_EQ(obs::TextProgressReporter::FormatLine(p),
            "done: 123456 states generated (45678 s/sec), 9999 distinct, "
            "0 on queue, depth 12, fp load 0.43 (2.50 s total)");
}

TEST(ProgressReporterTest, StringSinkAppendsLines) {
  std::string sink;
  obs::TextProgressReporter reporter(&sink);
  obs::CheckerProgress p;
  p.generated_states = 10;
  reporter.Report(p);
  reporter.Report(p);
  EXPECT_EQ(sink,
            "progress: 10 states generated (0 s/sec), 0 distinct, 0 on "
            "queue, depth 0, fp load 0.00\n"
            "progress: 10 states generated (0 s/sec), 0 distinct, 0 on "
            "queue, depth 0, fp load 0.00\n");
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// The end-to-end golden: a toy-spec check with a fake clock produces
// deterministic progress output — interval lines while the frontier
// drains, then one final "done:" line matching the check result exactly.
TEST(ProgressReporterTest, CheckerEmitsDeterministicProgress) {
  specs::CounterSpec spec(60);  // >1024 expansions, so polls fire.
  // Each clock read advances past the 2 s progress interval, so every
  // poll reports.
  constexpr int64_t kPerRead = 2'000'000'000;
  common::FakeMonotonicClock clock;
  clock.set_auto_advance_ns(kPerRead);

  std::string sink;
  obs::TextProgressReporter reporter(&sink);
  tlax::CheckerOptions options;
  options.progress_reporter = &reporter;
  options.clock = &clock;
  tlax::CheckResult result = tlax::ModelChecker(options).Check(spec);
  ASSERT_TRUE(result.status.ok());

  std::vector<std::string> lines = Lines(sink);
  ASSERT_GE(lines.size(), 2u);  // At least one interval line + done.
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("progress: ", 0), 0u) << lines[i];
  }

  // The final line is exactly the check result, formatted.
  obs::CheckerProgress final_progress;
  final_progress.generated_states = result.generated_states;
  final_progress.distinct_states = result.distinct_states;
  final_progress.frontier_size = 0;
  final_progress.depth = result.diameter;
  final_progress.seconds = result.seconds;
  final_progress.states_per_sec =
      static_cast<double>(result.generated_states) / result.seconds;
  final_progress.fingerprint_load = result.fingerprint_load;
  final_progress.final_report = true;
  EXPECT_EQ(lines.back(),
            obs::TextProgressReporter::FormatLine(final_progress));

  // The fake clock makes the run fully deterministic: a second run
  // produces byte-identical output.
  common::FakeMonotonicClock clock2;
  clock2.set_auto_advance_ns(kPerRead);
  std::string sink2;
  obs::TextProgressReporter reporter2(&sink2);
  options.progress_reporter = &reporter2;
  options.clock = &clock2;
  tlax::ModelChecker(options).Check(spec);
  EXPECT_EQ(sink, sink2);
}

TEST(ProgressReporterTest, CheckerPublishesRegistryMetrics) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();

  specs::CounterSpec spec(10);
  tlax::CheckResult result = tlax::ModelChecker().Check(spec);
  ASSERT_TRUE(result.status.ok());

  obs::RegistrySnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.HasFamily("checker."));
  EXPECT_EQ(snap.Find("checker.runs.completed")->value, 1.0);
  EXPECT_EQ(snap.Find("checker.states.generated")->value,
            static_cast<double>(result.generated_states));
  EXPECT_EQ(snap.Find("checker.states.distinct")->value,
            static_cast<double>(result.distinct_states));
  registry.Reset();
}

}  // namespace
}  // namespace xmodel
