// Command-line test generator: the analogue of running the paper's Golang
// program to emit a C++ test file. Used by the build to generate and
// compile a sampled suite (see tests/CMakeLists.txt) and by developers to
// regenerate the full 4,913-case file.
//
// Usage: mbtcg_gen <output.cc> [max_cases] [--swap] [--descending]
//                  [--workers=N] [--metrics-out=FILE]
//
// max_cases (0 = all) samples every k-th case. Cases are extracted
// straight from the checker's in-memory state graph. It also takes the
// shared flags --workers, which drives both the graph-recording model
// check and the per-leaf extraction fan-out (0 = one per hardware
// thread; the generated file is identical at every worker count), and
// --metrics-out; README.md "Shared flags" lists them all. An unknown
// flag, a bad value, or an output path that starts with '-' exits 2.

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "mbtcg/generator.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "tlax/checker.h"

int main(int argc, char** argv) {
  using xmodel::common::FlagResult;
  // The output path comes first; one that starts with '-' is a misplaced
  // flag (`mbtcg_gen --help`), not a file to write.
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: %s <output.cc> [max_cases] [--swap] [--descending] "
                 "[--workers=N] [--metrics-out=FILE]\n",
                 argv[0]);
    return 2;
  }
  const char* out_path = argv[1];
  size_t max_cases = 0;
  xmodel::specs::ArrayOtConfig config;
  xmodel::mbtcg::GenerateOptions gen_options;
  xmodel::tlax::CheckerOptions checker;
  xmodel::obs::SessionOptions obs_options;
  auto own_flag = [&](std::string_view arg, std::string* error) {
    if (arg == "--swap") {
      config.include_swap = true;
    } else if (arg == "--descending") {
      config.merge_descending = true;
    } else if (!arg.empty() && arg[0] != '-') {
      return xmodel::common::ParseIntegerFlag(
          "max_cases", arg, size_t{0}, std::numeric_limits<size_t>::max(),
          &max_cases, error);
    } else {
      return FlagResult::kUnknown;
    }
    return FlagResult::kParsed;
  };
  if (!xmodel::common::ParseFlags(
          argc - 1, argv + 1, "mbtcg_gen",
          {own_flag,
           xmodel::tlax::CheckerFlags(xmodel::tlax::kWorkersFlag, &checker),
           xmodel::obs::SessionFlags(xmodel::obs::kMetricsOutFlag,
                                     &obs_options)})) {
    return 2;
  }
  gen_options.num_workers = checker.num_workers;
  xmodel::obs::Session session(obs_options);

  std::vector<xmodel::mbtcg::TestCase> cases;
  xmodel::mbtcg::GenerationReport report =
      xmodel::mbtcg::GenerateTestCases(config, &cases, gen_options);
  if (!report.status.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 report.status.ToString().c_str());
    return 1;
  }

  // Deterministic sampling: take every k-th case when limited, so the
  // compiled subset spans the whole space rather than one corner.
  std::vector<xmodel::mbtcg::TestCase> selected;
  if (max_cases == 0 || max_cases >= cases.size()) {
    selected = std::move(cases);
  } else {
    size_t stride = cases.size() / max_cases;
    for (size_t i = 0; i < cases.size() && selected.size() < max_cases;
         i += stride) {
      selected.push_back(cases[i]);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  out << xmodel::mbtcg::GenerateCppTestFile(selected);
  std::fprintf(stderr,
               "mbtcg_gen: explored %llu states (%d worker%s), generated "
               "%zu cases, emitted %zu tests to %s\n",
               static_cast<unsigned long long>(report.spec_states),
               report.workers_used, report.workers_used == 1 ? "" : "s",
               report.num_cases, selected.size(), out_path);

  auto& registry = xmodel::obs::MetricsRegistry::Global();
  registry.GetCounter("mbtcg.states.explored").Increment(report.spec_states);
  registry.GetCounter("mbtcg.cases.generated").Increment(report.num_cases);
  registry.GetCounter("mbtcg.tests.emitted").Increment(selected.size());
  xmodel::common::Status status = session.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "mbtcg_gen: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
