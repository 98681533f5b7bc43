// Command-line test generator: the analogue of running the paper's Golang
// program to emit a C++ test file. Used by the build to generate and
// compile a sampled suite (see tests/CMakeLists.txt) and by developers to
// regenerate the full 4,913-case file.
//
// Usage: mbtcg_gen <output.cc> [max_cases] [--swap] [--descending]
//                  [--workers=N] [--via-dot] [--explore=level|relaxed]
//                  [--mem-budget-mb=N] [--metrics-out=FILE]
//
// --workers drives both the graph-recording model check and the per-leaf
// extraction fan-out (0 = one per hardware thread); the generated file is
// identical at every worker count. --via-dot routes extraction through the
// DOT serialize-parse round trip (the paper's textual pipeline) instead of
// the in-memory fast path. --explore=relaxed is accepted for CLI parity
// but always clamps back to level-sync (generation records the state
// graph, which needs level barriers); the clamp notice is printed.
// --mem-budget-mb is likewise accepted for parity but always gated off:
// generation pins the whole state graph in memory, so the checker cannot
// spill its seen-set; the gating notice is printed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "mbtcg/generator.h"
#include "obs/export.h"
#include "obs/metrics.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <output.cc> [max_cases] [--swap] [--descending] "
                 "[--workers=N] [--via-dot] [--explore=level|relaxed] "
                 "[--mem-budget-mb=N] [--metrics-out=FILE]\n",
                 argv[0]);
    return 2;
  }
  const char* out_path = argv[1];
  size_t max_cases = 0;
  std::string metrics_out;
  xmodel::specs::ArrayOtConfig config;
  xmodel::mbtcg::GenerateOptions gen_options;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--swap") == 0) {
      config.include_swap = true;
    } else if (std::strcmp(argv[i], "--descending") == 0) {
      config.merge_descending = true;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      gen_options.num_workers = std::atoi(argv[i] + 10);
      if (gen_options.num_workers < 0) {
        std::fprintf(stderr, "--workers must be >= 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--via-dot") == 0) {
      gen_options.via_dot = true;
    } else if (std::strncmp(argv[i], "--explore=", 10) == 0) {
      if (!xmodel::tlax::ParseExplorationPolicy(argv[i] + 10,
                                                &gen_options.exploration)) {
        std::fprintf(stderr, "--explore must be 'level' or 'relaxed'\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--mem-budget-mb=", 16) == 0) {
      if (!xmodel::tlax::ParseMemoryBudgetMb(argv[i] + 16,
                                             &gen_options.memory_budget_mb)) {
        std::fprintf(stderr, "--mem-budget-mb must be a whole number of "
                     "megabytes below 2^44\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      max_cases = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    }
  }

  std::vector<xmodel::mbtcg::TestCase> cases;
  xmodel::mbtcg::GenerationReport report =
      xmodel::mbtcg::GenerateTestCases(config, &cases, gen_options);
  if (!report.status.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 report.status.ToString().c_str());
    return 1;
  }
  if (!report.policy_notice.empty()) {
    std::fprintf(stderr, "mbtcg_gen: %s\n", report.policy_notice.c_str());
  }
  if (!report.spill_notice.empty()) {
    std::fprintf(stderr, "mbtcg_gen: %s\n", report.spill_notice.c_str());
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
               "mbtcg_gen: explored %llu states (%d worker%s%s), generated "
               "%zu cases, emitted %zu tests to %s\n",
               static_cast<unsigned long long>(report.spec_states),
               report.workers_used, report.workers_used == 1 ? "" : "s",
               gen_options.via_dot ? ", via DOT" : "", report.num_cases,
               selected.size(), out_path);

  if (!metrics_out.empty()) {
    auto& registry = xmodel::obs::MetricsRegistry::Global();
    registry.GetCounter("mbtcg.states.explored")
        .Increment(report.spec_states);
    registry.GetCounter("mbtcg.cases.generated").Increment(report.num_cases);
    registry.GetCounter("mbtcg.tests.emitted").Increment(selected.size());
    xmodel::common::Status status =
        xmodel::obs::WriteMetricsJson(registry.Snapshot(), metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
