#include "mbtcg/generator.h"

#include <algorithm>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "ot/fixture.h"
#include "tlax/checker.h"

namespace xmodel::mbtcg {

using common::Status;
using common::StrCat;
using ot::Operation;
using ot::OpType;

GenerationReport GenerateTestCases(const specs::ArrayOtConfig& config,
                                   std::vector<TestCase>* cases,
                                   const GenerateOptions& options) {
  GenerationReport report;
  specs::ArrayOtSpec spec(config);

  tlax::CheckerOptions checker_options;
  checker_options.record_graph = true;
  checker_options.num_workers = options.num_workers;
  tlax::CheckResult checked =
      tlax::ModelChecker(checker_options).Check(spec);
  report.spec_states = checked.distinct_states;
  report.model_check_seconds = checked.seconds;
  report.workers_used = checked.workers_used;
  if (!checked.status.ok()) {
    report.status = checked.status;
    return report;
  }
  if (checked.violation.has_value()) {
    report.status = Status::FailedPrecondition(
        StrCat("specification violates ", checked.violation->kind,
               " — fix the spec before generating tests"));
    return report;
  }
  report.roots = checked.graph->initial_states().size();

  common::MonotonicClock* clock = common::MonotonicClock::Real();
  const int64_t extract_start_ns = clock->NowNanos();
  common::Result<std::vector<TestCase>> extracted =
      ExtractTestCases(*checked.graph, spec.variables(), config.num_clients,
                       options.num_workers);
  report.extract_seconds =
      static_cast<double>(clock->NowNanos() - extract_start_ns) * 1e-9;
  if (!extracted.ok()) {
    report.status = extracted.status();
    return report;
  }
  *cases = std::move(*extracted);
  for (TestCase& c : *cases) c.merge_descending = config.merge_descending;
  report.num_cases = cases->size();

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("mbtcg.extract.roots")
      .Set(static_cast<double>(report.roots));
  registry.GetGauge("mbtcg.extract.cases")
      .Set(static_cast<double>(report.num_cases));
  registry.GetGauge("mbtcg.extract.seconds").Set(report.extract_seconds);
  return report;
}

namespace {

std::string OpAsCode(const Operation& op) {
  switch (op.type) {
    case OpType::kArraySet:
      return StrCat("Operation::Set(", op.ndx, ", ", op.value, ")");
    case OpType::kArrayInsert:
      return StrCat("Operation::Insert(", op.ndx, ", ", op.value, ")");
    case OpType::kArrayMove:
      return StrCat("Operation::Move(", op.ndx, ", ", op.ndx2, ")");
    case OpType::kArraySwap:
      return StrCat("Operation::Swap(", op.ndx, ", ", op.ndx2, ")");
    case OpType::kArrayErase:
      return StrCat("Operation::Erase(", op.ndx, ")");
    case OpType::kArrayClear:
      return "Operation::Clear()";
  }
  return "/* ? */";
}

std::string ArrayAsCode(const ot::Array& array) {
  std::string out = "{";
  for (size_t i = 0; i < array.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrCat(array[i]);
  }
  out += "}";
  return out;
}

}  // namespace

std::string GenerateCppTestFile(const std::vector<TestCase>& cases,
                                size_t max_cases) {
  size_t count = max_cases == 0 ? cases.size()
                                : std::min(max_cases, cases.size());
  std::string out;
  out +=
      "// GENERATED FILE — produced by the MBTCG pipeline from the array_ot\n"
      "// specification's state space. Do not edit: regenerate instead.\n"
      "// One test per fully-merged leaf state (paper §5.2, Figure 9).\n"
      "\n"
      "#include <gtest/gtest.h>\n"
      "\n"
      "#include \"ot/fixture.h\"\n"
      "#include \"ot/operation.h\"\n"
      "\n"
      "namespace xmodel::ot {\n"
      "namespace {\n"
      "\n";
  for (size_t i = 0; i < count; ++i) {
    const TestCase& c = cases[i];
    out += StrCat("TEST(Transform, Node__", c.case_id, ") {\n");
    out += StrCat("  TransformArrayFixture fixture{",
                  static_cast<int>(c.client_ops.size()), ", ",
                  ArrayAsCode(c.initial), "};\n");
    for (size_t client = 0; client < c.client_ops.size(); ++client) {
      out += StrCat("  fixture.transaction(", client, ", ",
                    OpAsCode(c.client_ops[client]), ");\n");
    }
    out += c.merge_descending
               ? "  fixture.sync_all_clients(/*descending=*/true);\n"
               : "  fixture.sync_all_clients();\n";
    out += StrCat("  fixture.check_array(", ArrayAsCode(c.final_array),
                  ");\n");
    for (size_t client = 0; client < c.applied_ops.size(); ++client) {
      out += StrCat("  fixture.check_ops(", client, ", {");
      for (size_t k = 0; k < c.applied_ops[client].size(); ++k) {
        if (k > 0) out += ", ";
        out += OpAsCode(c.applied_ops[client][k]);
      }
      out += "});\n";
    }
    out += "  EXPECT_TRUE(fixture.ok()) << fixture.errors().front();\n";
    out += "}\n\n";
  }
  out +=
      "}  // namespace\n"
      "}  // namespace xmodel::ot\n";
  return out;
}

RunReport RunTestCases(const std::vector<TestCase>& cases,
                       const ot::ListTransformer* transformer,
                       bool check_applied_ops, int num_workers) {
  // Cases run in chunks (one pool task per kChunk cases, so the atomic
  // cursor is touched once per chunk), and each case's first error, if
  // any, lands in its own slot; the report is assembled afterwards in case
  // order, identical at every worker count.
  constexpr size_t kChunk = 64;
  std::vector<std::string> errors(cases.size());
  std::vector<char> failed(cases.size(), 0);
  common::WorkerPool pool(common::ResolveWorkerCount(num_workers));
  common::ParallelFor(
      &pool, (cases.size() + kChunk - 1) / kChunk, [&](size_t chunk) {
        const size_t end = std::min(cases.size(), (chunk + 1) * kChunk);
        for (size_t i = chunk * kChunk; i < end; ++i) {
          const TestCase& c = cases[i];
          ot::TransformArrayFixture fixture(
              static_cast<int>(c.client_ops.size()), c.initial, transformer);
          for (size_t client = 0; client < c.client_ops.size(); ++client) {
            fixture.transaction(static_cast<int>(client),
                                c.client_ops[client]);
          }
          fixture.sync_all_clients(c.merge_descending);
          fixture.check_array(c.final_array);
          if (check_applied_ops) {
            for (size_t client = 0; client < c.applied_ops.size();
                 ++client) {
              fixture.check_ops(static_cast<int>(client),
                                c.applied_ops[client]);
            }
          }
          if (!fixture.ok()) {
            failed[i] = 1;
            errors[i] = fixture.errors().front();
          }
        }
      });

  RunReport report;
  report.total = cases.size();
  for (size_t i = 0; i < cases.size(); ++i) {
    if (!failed[i]) {
      ++report.passed;
    } else if (report.failures.size() < 10) {
      report.failures.push_back(
          StrCat("case ", cases[i].case_id, ": ", errors[i]));
    }
  }
  return report;
}

}  // namespace xmodel::mbtcg
