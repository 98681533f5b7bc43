#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "fuzz/transform_fuzzer.h"
#include "ot/fixture.h"
#include "ot/handwritten_cases.h"
#include "mbtcg/generator.h"
#include "ot/coverage.h"
#include "otgo/go_merge.h"
#include "specs/array_ot_spec.h"
#include "tlax/checker.h"
#include "tlax/state.h"
#include "tlax/value.h"

namespace xmodel::mbtcg {
namespace {

using specs::ArrayOtConfig;
using specs::ArrayOtSpec;

TEST(ArrayOtSpecTest, SeventeenOperationMenu) {
  // 3 Set + 4 Insert + 6 Move + 3 Erase + 1 Clear = 17 (the paper's
  // enumeration that yields 17^3 = 4,913 cases).
  EXPECT_EQ(ArrayOtSpec::EnumerateOps(3, 1, false).size(), 17u);
  // With the deprecated swap: + C(3,2) = 3 swaps.
  EXPECT_EQ(ArrayOtSpec::EnumerateOps(3, 1, true).size(), 20u);
}

TEST(ArrayOtSpecTest, ModelChecksClean) {
  ArrayOtSpec spec(ArrayOtConfig{});
  auto result = tlax::ModelChecker().Check(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.violation.has_value())
      << result.violation->kind;
  EXPECT_EQ(result.distinct_states, 29785u);  // 1+17+17^2+17^3+5*17^3.
}

TEST(ArrayOtSpecTest, SwapMoveBugFoundByModelChecker) {
  // §5.1.3: TLC encountered a StackOverflowError caused by the swap/move
  // merge never terminating; our checker reports the transcribed bug as a
  // MergeTerminates violation with a minimal trace.
  ArrayOtConfig config;
  config.include_swap = true;
  config.swap_move_bug = true;
  ArrayOtSpec spec(config);
  auto result = tlax::ModelChecker().Check(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, "MergeTerminates");
}

TEST(ArrayOtSpecTest, SwapWithFixedRulesChecksClean) {
  ArrayOtConfig config;
  config.include_swap = true;
  ArrayOtSpec spec(config);
  auto result = tlax::ModelChecker().Check(spec);
  EXPECT_FALSE(result.violation.has_value());
}

TEST(ArrayOtSpecTest, TranscriptionErrorCaught) {
  // §5.1.1: "the TLC model checker was readily able to catch human
  // transcription errors as safety violations."
  ArrayOtConfig config;
  config.inject_transcription_error = true;
  ArrayOtSpec spec(config);
  auto result = tlax::ModelChecker().Check(spec);
  ASSERT_TRUE(result.violation.has_value());
}

// ArrayOtSpec memoizes operation records per thread. Records built inside
// a Value::InternScope are freed at its close, so neither memo may keep
// one: expanding the same states again outside the scope must give the
// same text (and, under ASan, read no freed rep).
TEST(ArrayOtSpecTest, MemosSurviveInternScopeClose) {
  ArrayOtConfig config;
  config.num_clients = 2;
  config.initial_array_len = 5;  // Records no other test interns first.
  const ArrayOtSpec spec(config);
  auto expand_all = [&spec](bool* saw_scoped) {
    std::vector<std::string> text;
    std::vector<tlax::State> layer = spec.InitialStates();
    std::vector<tlax::State> successors;
    while (!layer.empty()) {
      std::vector<tlax::State> next_layer;
      for (const tlax::State& s : layer) {
        for (const tlax::Action& action : spec.actions()) {
          successors.clear();
          action.next(s, &successors);
          for (tlax::State& succ : successors) {
            std::string line = action.name;
            for (const tlax::Value& v : succ.vars()) {
              line += " " + v.ToTla();
              *saw_scoped = *saw_scoped || v.is_scoped();
            }
            text.push_back(std::move(line));
            next_layer.push_back(std::move(succ));
          }
        }
      }
      layer = std::move(next_layer);
    }
    return text;
  };
  bool saw_scoped = false;
  std::vector<std::string> in_scope;
  {
    const tlax::Value::InternScope scope;
    in_scope = expand_all(&saw_scoped);
  }
  ASSERT_TRUE(saw_scoped) << "the scope built no new values";
  ASSERT_FALSE(in_scope.empty());
  bool unused = false;
  EXPECT_EQ(expand_all(&unused), in_scope);
  EXPECT_EQ(expand_all(&unused), in_scope);  // Now from the memos.
}

TEST(GeneratorTest, ProducesExactly4913Cases) {
  // The paper's headline number: "the Golang program generated 4,913 C++
  // test cases" for 3 clients, one op each, 3-element initial array.
  std::vector<TestCase> cases;
  GenerationReport report = GenerateTestCases(ArrayOtConfig{}, &cases);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(cases.size(), 4913u);
  EXPECT_EQ(report.num_cases, 4913u);
  EXPECT_EQ(report.roots, 1u);

  // Every case is well-formed.
  for (const TestCase& c : cases) {
    EXPECT_EQ(c.initial, (ot::Array{1, 2, 3}));
    EXPECT_EQ(c.client_ops.size(), 3u);
    EXPECT_EQ(c.applied_ops.size(), 3u);
  }
  // Case ids are unique.
  std::vector<uint64_t> ids;
  for (const TestCase& c : cases) ids.push_back(c.case_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(GeneratorTest, ParallelGenerationIsWorkerInvariant) {
  // Both pipeline stages — graph-recording model check and per-leaf
  // extraction — run multi-worker; the output must not notice.
  std::vector<TestCase> base;
  ASSERT_TRUE(GenerateTestCases(ArrayOtConfig{}, &base).status.ok());

  for (int workers : {2, 4}) {
    GenerateOptions options;
    options.num_workers = workers;
    std::vector<TestCase> cases;
    GenerationReport report =
        GenerateTestCases(ArrayOtConfig{}, &cases, options);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_EQ(report.workers_used, workers);
    ASSERT_EQ(cases.size(), base.size()) << "workers=" << workers;
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(cases[i].case_id, base[i].case_id)
          << "workers=" << workers << ", case order diverged at " << i;
    }
  }
}

// Order-dependent digest of a case list: each case's id, the transformed
// operations every client applied, and the final array.
uint64_t CaseListDigest(const std::vector<TestCase>& cases) {
  uint64_t h = common::HashString("case-list");
  for (const TestCase& c : cases) {
    h = common::HashCombine(h, c.case_id);
    for (const ot::OpList& ops : c.applied_ops) {
      h = common::HashCombine(h, ops.size());
      for (const ot::Operation& op : ops) {
        h = common::HashCombine(h, common::HashString(op.ToString()));
      }
    }
    h = common::HashCombine(h, common::HashString(ot::ToString(c.final_array)));
  }
  return h;
}

TEST(GeneratorTest, CaseListIsPinned) {
  // The emitted suite is a pure function of the spec config: these
  // digests pin the ordered case list (ids, applied operations and final
  // arrays) at every worker count, so a change to exploration or
  // extraction that reorders or alters a case fails here.
  struct Pinned {
    const char* name;
    bool include_swap;
    bool merge_descending;
    size_t cases;
    uint64_t digest;
  };
  const Pinned kPinned[] = {
      {"default", false, false, 4913u, 0xa1c736e52fde1889ULL},
      {"include_swap", true, false, 8000u, 0x1cb7140cefc3d000ULL},
      {"merge_descending", false, true, 4913u, 0x54f684b956686c2cULL},
  };
  for (const Pinned& p : kPinned) {
    ArrayOtConfig config;
    config.include_swap = p.include_swap;
    config.merge_descending = p.merge_descending;
    for (int workers : {1, 4}) {
      GenerateOptions options;
      options.num_workers = workers;
      std::vector<TestCase> cases;
      GenerationReport report = GenerateTestCases(config, &cases, options);
      ASSERT_TRUE(report.status.ok()) << report.status.ToString();
      EXPECT_EQ(cases.size(), p.cases) << p.name << ", workers=" << workers;
      EXPECT_EQ(CaseListDigest(cases), p.digest)
          << p.name << ", workers=" << workers << std::hex << ": 0x"
          << CaseListDigest(cases);
    }
  }
}

TEST(GeneratorTest, AllCasesPassOnBothImplementations) {
  std::vector<TestCase> cases;
  ASSERT_TRUE(GenerateTestCases(ArrayOtConfig{}, &cases).status.ok());

  RunReport cpp_run = RunTestCases(cases);
  EXPECT_EQ(cpp_run.passed, cases.size())
      << (cpp_run.failures.empty() ? "" : cpp_run.failures.front());

  otgo::GoMergeEngine go;
  RunReport go_run = RunTestCases(cases, &go);
  EXPECT_EQ(go_run.passed, cases.size())
      << (go_run.failures.empty() ? "" : go_run.failures.front());
}

TEST(GeneratorTest, DescendingScheduleAlsoPasses) {
  ArrayOtConfig config;
  config.merge_descending = true;
  std::vector<TestCase> cases;
  ASSERT_TRUE(GenerateTestCases(config, &cases).status.ok());
  EXPECT_EQ(cases.size(), 4913u);
  RunReport run = RunTestCases(cases);
  EXPECT_EQ(run.passed, cases.size())
      << (run.failures.empty() ? "" : run.failures.front());
}

TEST(GeneratorTest, GeneratedFileShape) {
  std::vector<TestCase> cases;
  ASSERT_TRUE(GenerateTestCases(ArrayOtConfig{}, &cases).status.ok());
  std::string file = GenerateCppTestFile(cases, /*max_cases=*/3);
  EXPECT_NE(file.find("TEST(Transform, Node__"), std::string::npos);
  EXPECT_NE(file.find("TransformArrayFixture fixture{3, {1, 2, 3}}"),
            std::string::npos);
  EXPECT_NE(file.find("fixture.sync_all_clients();"), std::string::npos);
  EXPECT_NE(file.find("fixture.check_array("), std::string::npos);
  EXPECT_NE(file.find("fixture.check_ops(0, {"), std::string::npos);
  // Exactly three tests were emitted.
  size_t count = 0, pos = 0;
  while ((pos = file.find("TEST(", pos)) != std::string::npos) {
    ++count;
    pos += 5;
  }
  EXPECT_EQ(count, 3u);
}

TEST(GeneratorTest, DetectsImplementationDivergence) {
  // Sabotage a generated expectation: the runner must notice.
  std::vector<TestCase> cases;
  ASSERT_TRUE(GenerateTestCases(ArrayOtConfig{}, &cases).status.ok());
  ASSERT_FALSE(cases.empty());
  cases.resize(10);
  cases[3].final_array.push_back(12345);
  RunReport run = RunTestCases(cases);
  EXPECT_EQ(run.passed, 9u);
  ASSERT_EQ(run.failures.size(), 1u);
}

TEST(GeneratorTest, ParallelRunMatchesSerial) {
  // The xbench mbtcg_ot corpus: 4 clients over a 2-element array, 10,000
  // cases. Sabotaged cases spread over the list must fail in the same
  // order, and the merge rules must record the same coverage, whether the
  // cases run on one worker or four.
  ArrayOtConfig config;
  config.num_clients = 4;
  config.initial_array_len = 2;
  std::vector<TestCase> cases;
  ASSERT_TRUE(GenerateTestCases(config, &cases).status.ok());
  ASSERT_EQ(cases.size(), 10000u);
  // RunTestCases hands out cases in chunks of 64. Eight sit in pairs just
  // before and just after four chunk boundaries, so concurrent workers
  // tend to finish each pair in reverse order; the other seven are spread
  // over the rest of the list.
  std::vector<size_t> sabotaged;
  for (size_t chunk : {15, 25, 35, 45}) {
    sabotaged.push_back(chunk * 64 - 2);
    sabotaged.push_back(chunk * 64 + 1);
  }
  for (size_t k = 0; k < 7; ++k) sabotaged.push_back(3500 + k * 1000);
  for (size_t k = 0; k < sabotaged.size(); ++k) {
    const size_t i = sabotaged[k];
    if (k % 2 == 0) {
      cases[i].final_array.push_back(12345);
    } else {
      cases[i].applied_ops[k % 4].push_back(ot::Operation::Clear());
    }
  }

  const otgo::GoMergeEngine go;
  auto& registry = ot::CoverageRegistry::Instance();
  registry.Reset();
  const std::vector<std::string> branches = registry.UncoveredBranches();
  ASSERT_EQ(branches.size(), registry.total_branches());
  for (const ot::ListTransformer* transformer :
       {static_cast<const ot::ListTransformer*>(nullptr),
        static_cast<const ot::ListTransformer*>(&go)}) {
    std::vector<RunReport> reports;
    std::vector<std::vector<uint64_t>> hits;
    for (int workers : {1, 4}) {
      registry.Reset();
      reports.push_back(RunTestCases(cases, transformer,
                                     /*check_applied_ops=*/true, workers));
      hits.emplace_back();
      for (const std::string& b : branches) {
        hits.back().push_back(registry.hits(b));
      }
    }
    const char* impl = transformer == nullptr ? "ot" : "otgo";
    const RunReport& serial = reports[0];
    EXPECT_EQ(serial.total, 10000u) << impl;
    EXPECT_EQ(serial.passed, 10000u - sabotaged.size()) << impl;
    ASSERT_EQ(serial.failures.size(), 10u) << impl;
    for (size_t k = 0; k < serial.failures.size(); ++k) {
      EXPECT_EQ(serial.failures[k].rfind(
                    common::StrCat("case ", cases[sabotaged[k]].case_id, ":"),
                    0),
                0u)
          << impl << ": " << serial.failures[k];
    }
    const RunReport& parallel = reports[1];
    EXPECT_EQ(parallel.total, serial.total) << impl;
    EXPECT_EQ(parallel.passed, serial.passed) << impl;
    EXPECT_EQ(parallel.failures, serial.failures) << impl;
    for (size_t b = 0; b < branches.size(); ++b) {
      EXPECT_EQ(hits[1][b], hits[0][b]) << impl << ": " << branches[b];
    }
  }
  registry.Reset();
}

TEST(FuzzerTest, ConvergesOverRandomWorkloads) {
  fuzz::FuzzOptions options;
  options.iterations = 2000;
  options.include_swap = true;
  ot::CoverageRegistry::Instance().Reset();
  fuzz::FuzzReport report = fuzz::RunTransformFuzzer(options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front());
  EXPECT_EQ(report.executions, 2000u);
  EXPECT_GT(report.branches_covered, 20u);
}

TEST(FuzzerTest, DeterministicPerSeed) {
  fuzz::FuzzOptions options;
  options.iterations = 500;
  ot::CoverageRegistry::Instance().Reset();
  fuzz::FuzzReport a = fuzz::RunTransformFuzzer(options);
  ot::CoverageRegistry::Instance().Reset();
  fuzz::FuzzReport b = fuzz::RunTransformFuzzer(options);
  EXPECT_EQ(a.branches_covered, b.branches_covered);
}

TEST(CoverageOrderingTest, HandwrittenBelowFuzzerBelowGenerated) {
  // Experiment E7's ordering (paper: 21% < 92% < 100%).
  auto& registry = ot::CoverageRegistry::Instance();

  registry.Reset();
  for (const ot::HandwrittenCase& c : ot::HandwrittenCases()) {
    ot::TransformArrayFixture fixture(static_cast<int>(c.client_ops.size()),
                                      c.initial);
    for (size_t i = 0; i < c.client_ops.size(); ++i) {
      fixture.transaction(static_cast<int>(i), c.client_ops[i]);
    }
    fixture.sync_all_clients();
  }
  size_t handwritten = registry.covered_branches();

  registry.Reset();
  fuzz::FuzzOptions options;
  options.iterations = 20000;
  options.include_swap = true;
  fuzz::RunTransformFuzzer(options);
  size_t fuzzed = registry.covered_branches();

  registry.Reset();
  size_t generated_total = 0;
  for (bool descending : {false, true}) {
    ArrayOtConfig config;
    config.include_swap = true;
    config.merge_descending = descending;
    std::vector<TestCase> cases;
    ASSERT_TRUE(GenerateTestCases(config, &cases).status.ok());
    RunReport run = RunTestCases(cases);
    generated_total += run.passed;
    EXPECT_EQ(run.passed, run.total);
  }
  size_t generated = registry.covered_branches();

  EXPECT_LT(handwritten, fuzzed);
  EXPECT_LT(fuzzed, generated);
  EXPECT_EQ(generated, registry.total_branches());  // 100%.
  EXPECT_EQ(generated_total, 2u * 8000u);
}

}  // namespace
}  // namespace xmodel::mbtcg
