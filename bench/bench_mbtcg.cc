// Experiment E6 (§5.2): exhaustive test-case generation. The paper: "For
// an initial array containing three elements and with three clients each
// performing a single operation, the Golang program generated 4,913 C++
// test cases", all of which passed, proving the TLA+ spec, the C++
// implementation, and the Golang implementation agree.
//
// This bench runs the whole pipeline and times each stage, two ways:
//   1. a --workers scaling sweep (1/2/4) of the end-to-end generation,
//      asserting every sweep point produces the identical case list;
//   2. an extraction micro-benchmark: repeated ExtractTestCases over the
//      recorded graph.
// Then it executes the cases against BOTH merge implementations, at 1 and 4
// workers.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "mbtcg/generator.h"
#include "otgo/go_merge.h"
#include "tlax/checker.h"

using namespace xmodel;  // NOLINT — bench binaries only.

namespace {

int64_t NowNs() { return common::MonotonicClock::Real()->NowNanos(); }

double Seconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

bool SameCases(const std::vector<mbtcg::TestCase>& a,
               const std::vector<mbtcg::TestCase>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].case_id != b[i].case_id) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench("mbtcg", argc, argv);
  std::printf("E6: model-based test-case generation, end to end\n\n");

  specs::ArrayOtConfig config;  // The paper's configuration.
  if (bench.quick()) config.num_clients = 2;  // ~dozens of cases, not 4,913.

  // --- Workers scaling sweep -----------------------------------------------
  std::vector<mbtcg::TestCase> cases;  // The 1-worker baseline list.
  double baseline_seconds = 0;
  double w4_seconds = 0;
  for (int workers : {1, 2, 4}) {
    mbtcg::GenerateOptions options;
    options.num_workers = workers;
    std::vector<mbtcg::TestCase> sweep_cases;
    int64_t t0 = NowNs();
    mbtcg::GenerationReport generation =
        mbtcg::GenerateTestCases(config, &sweep_cases, options);
    const double seconds = Seconds(t0);
    if (!generation.status.ok()) {
      return bench.Fail(generation.status.ToString());
    }
    if (workers == 1) {
      cases = std::move(sweep_cases);
      baseline_seconds = seconds;
      std::printf("spec states explored:     %llu\n",
                  static_cast<unsigned long long>(generation.spec_states));
      std::printf("test cases generated:     %zu   (paper: 4,913)\n\n",
                  cases.size());
    } else if (!SameCases(cases, sweep_cases)) {
      return bench.Fail(common::StrCat("case list diverged at workers=",
                                       workers, " — determinism bug"));
    }
    if (workers == 4) w4_seconds = seconds;
    std::printf("generation @ %d worker(s):  %.2f s "
                "(model check %.2f s, extract %.2f s)\n",
                workers, seconds, generation.model_check_seconds,
                generation.extract_seconds);
    bench.AddResult(common::StrCat("generation_seconds_w", workers), seconds);
  }
  std::printf("speedup 4w / 1w:          %.2fx\n\n",
              w4_seconds > 0 ? baseline_seconds / w4_seconds : 0);
  bench.AddResult("speedup_w4",
                  w4_seconds > 0 ? baseline_seconds / w4_seconds : 0);

  // --- Extraction micro-benchmark ------------------------------------------
  // Isolates the ExtractTestCases stage (pre-decoded labels, per-leaf
  // fan-out) from the model check: repeated extraction over one recorded
  // graph.
  {
    specs::ArrayOtSpec spec(config);
    tlax::CheckerOptions checker_options;
    checker_options.record_graph = true;
    tlax::CheckResult checked =
        tlax::ModelChecker(checker_options).Check(spec);
    if (!checked.status.ok()) return bench.Fail(checked.status.ToString());

    const int reps = bench.quick() ? 3 : 10;
    int64_t t0 = NowNs();
    for (int r = 0; r < reps; ++r) {
      auto extracted = mbtcg::ExtractTestCases(*checked.graph,
                                               spec.variables(),
                                               config.num_clients);
      if (!extracted.ok()) return bench.Fail(extracted.status().ToString());
    }
    const double per_pass = Seconds(t0) / reps;
    std::printf("extraction:               %.4f s/pass over %d pass(es)\n\n",
                per_pass, reps);
    bench.AddResult("extract_seconds", per_pass);
  }

  // --- Execute against both implementations --------------------------------
  // At 1 and 4 workers; the reports must not depend on the worker count.
  otgo::GoMergeEngine go;
  mbtcg::RunReport cpp_run;
  mbtcg::RunReport go_run;
  for (int workers : {1, 4}) {
    int64_t t0 = NowNs();
    mbtcg::RunReport cpp = mbtcg::RunTestCases(cases, nullptr, true, workers);
    const double cpp_seconds = Seconds(t0);
    t0 = NowNs();
    mbtcg::RunReport gor = mbtcg::RunTestCases(cases, &go, true, workers);
    const double go_seconds = Seconds(t0);
    std::printf("C++ implementation @ %d worker(s): %zu/%zu passed (%.3f s)\n",
                workers, cpp.passed, cpp.total, cpp_seconds);
    std::printf("Go  implementation @ %d worker(s): %zu/%zu passed (%.3f s)\n",
                workers, gor.passed, gor.total, go_seconds);
    bench.AddResult(common::StrCat("cpp_run_seconds_w", workers), cpp_seconds);
    bench.AddResult(common::StrCat("go_run_seconds_w", workers), go_seconds);
    if (workers == 1) {
      cpp_run = std::move(cpp);
      go_run = std::move(gor);
    } else if (cpp.passed != cpp_run.passed ||
               cpp.failures != cpp_run.failures ||
               gor.passed != go_run.passed ||
               gor.failures != go_run.failures) {
      return bench.Fail(common::StrCat("run report diverged at workers=",
                                       workers, " — determinism bug"));
    }
  }

  for (const std::string& f : cpp_run.failures) {
    std::printf("  C++ FAIL: %s\n", f.c_str());
  }
  for (const std::string& f : go_run.failures) {
    std::printf("  Go  FAIL: %s\n", f.c_str());
  }

  // Emitted-file size, for the record (the paper compiled its generated
  // tests with Realm's unit-test framework).
  std::string file = mbtcg::GenerateCppTestFile(cases);
  std::printf("\ngenerated gtest source:   %.1f MB across %zu tests\n",
              static_cast<double>(file.size()) / 1e6, cases.size());
  std::printf("paper reference: all 4,913 generated cases passed, giving "
              "100%% branch coverage\n");
  std::printf("and confidence that the C++ and Golang merge rules always "
              "agree.\n");

  bench.AddResult("cases_generated", static_cast<double>(cases.size()));
  bench.AddResult("generation_seconds", baseline_seconds);
  bench.AddResult("cpp_passed", static_cast<double>(cpp_run.passed));
  bench.AddResult("go_passed", static_cast<double>(go_run.passed));
  return bench.Finish((cpp_run.all_passed() && go_run.all_passed()) ? 0 : 1);
}
