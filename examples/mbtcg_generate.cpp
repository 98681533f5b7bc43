// Model-based test-case generation, end to end (§5.2): explore the
// array_ot specification recording its state graph, extract one test
// case per fully-merged leaf straight from that in-memory graph, write a compilable gtest
// file to disk, and run every case in-process against both the C++ and
// the "Golang" merge-rule implementations.
//
// Usage: mbtcg_generate [output_directory]   (default: current directory)

#include <cstdio>
#include <fstream>
#include <string>

#include "mbtcg/generator.h"
#include "ot/coverage.h"
#include "otgo/go_merge.h"

using namespace xmodel;  // NOLINT — example binaries only.

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : ".";

  specs::ArrayOtConfig config;  // 3 clients, 1 op each, {1,2,3}.
  std::vector<mbtcg::TestCase> cases;
  mbtcg::GenerationReport report = mbtcg::GenerateTestCases(config, &cases);
  if (!report.status.ok()) {
    std::printf("generation failed: %s\n", report.status.ToString().c_str());
    return 1;
  }
  std::printf("explored %llu spec states; %zu test cases extracted from "
              "the recorded state graph\n",
              static_cast<unsigned long long>(report.spec_states),
              cases.size());

  // Write the generated gtest source (all 4,913 tests).
  std::string path = out_dir + "/generated_transform_test.cc";
  std::ofstream file(path);
  file << mbtcg::GenerateCppTestFile(cases);
  file.close();
  std::printf("wrote %s\n", path.c_str());

  // Run everything in-process, against both implementations, with branch
  // coverage accounting.
  auto& coverage = ot::CoverageRegistry::Instance();
  coverage.Reset();
  mbtcg::RunReport cpp_run = mbtcg::RunTestCases(cases);
  std::printf("C++ rules:  %zu/%zu cases pass\n", cpp_run.passed,
              cpp_run.total);

  otgo::GoMergeEngine go;
  mbtcg::RunReport go_run = mbtcg::RunTestCases(cases, &go);
  std::printf("Go rules:   %zu/%zu cases pass\n", go_run.passed,
              go_run.total);

  std::printf("merge-rule branch coverage from this suite: %zu / %zu\n",
              coverage.covered_branches(), coverage.total_branches());
  std::printf("\n(the swap-enabled and descending-merge configurations — "
              "see bench_coverage —\n bring coverage to 100%%)\n");
  return (cpp_run.all_passed() && go_run.all_passed()) ? 0 : 1;
}
