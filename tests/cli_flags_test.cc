// The shared command-line flag parsers, tlax::CheckerFlags and
// obs::SessionFlags, checked against one table: every shared flag
// with a good value, an empty one, a non-number, a negative, trailing
// bytes and an overflow. A failed parse must leave the options untouched,
// and an argument the parser does not own must not be consumed. Also the
// obs::Session lifecycle the CLIs and benches share.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/fileio.h"
#include "common/strings.h"
#include "obs/session.h"
#include "tlax/checker.h"

namespace xmodel {
namespace {

using common::FlagResult;
using common::StrCat;

struct Row {
  std::string_view arg;
  FlagResult want;
  std::string value;  // kParsed only: the stored field, rendered.
};

using Fields = std::map<std::string, std::string>;

// Every field a shared flag can set, keyed by its flag.
Fields CheckerFields(const tlax::CheckerOptions& o) {
  return {{"--workers", StrCat(o.num_workers)},
          {"--mem-budget-mb", StrCat(o.memory_budget_mb)},
          {"--spill-dir", o.spill_dir},
          {"--checkpoint-dir", o.checkpoint_dir},
          {"--checkpoint-every-s", StrCat(o.checkpoint_every_s)},
          {"--resume", StrCat(o.resume ? 1 : 0)}};
}

Fields SessionFields(const obs::SessionOptions& o) {
  return {{"--metrics-out", o.metrics_out},
          {"--trace-out", o.trace_out},
          {"--events-out", o.events_out},
          {"--serve", StrCat(o.serve_port)},
          {"--serve-linger-ms", StrCat(o.serve_linger_ms)},
          {"--stall-timeout-ms", StrCat(o.stall_timeout_ms)}};
}

const std::vector<Row>& CheckerRows() {
  static const std::vector<Row> rows = {
      {"--workers=4", FlagResult::kParsed, "4"},
      {"--workers=0", FlagResult::kParsed, "0"},
      {"--workers=4096", FlagResult::kParsed, "4096"},
      {"--workers=", FlagResult::kBad, ""},
      {"--workers=abc", FlagResult::kBad, ""},
      {"--workers=-1", FlagResult::kBad, ""},
      {"--workers=4x", FlagResult::kBad, ""},
      {"--workers=4097", FlagResult::kBad, ""},
      {"--workers=99999999999999999999", FlagResult::kBad, ""},
      // Every run is level-synchronous; no parser owns --explore.
      {"--explore=relaxed", FlagResult::kUnknown, ""},
      {"--explore=level", FlagResult::kUnknown, ""},
      {"--mem-budget-mb=0", FlagResult::kParsed, "0"},
      {"--mem-budget-mb=64", FlagResult::kParsed, "64"},
      // The largest budget whose byte count (mb << 20) fits in 64 bits.
      {"--mem-budget-mb=17592186044415", FlagResult::kParsed,
       "17592186044415"},
      {"--mem-budget-mb=", FlagResult::kBad, ""},
      {"--mem-budget-mb=abc", FlagResult::kBad, ""},
      {"--mem-budget-mb=12abc", FlagResult::kBad, ""},
      {"--mem-budget-mb=-1", FlagResult::kBad, ""},
      {"--mem-budget-mb=+1", FlagResult::kBad, ""},
      {"--mem-budget-mb= 1", FlagResult::kBad, ""},
      {"--mem-budget-mb=1 ", FlagResult::kBad, ""},
      {"--mem-budget-mb=0x10", FlagResult::kBad, ""},
      {"--mem-budget-mb=1.5", FlagResult::kBad, ""},
      {"--mem-budget-mb=17592186044416", FlagResult::kBad, ""},
      {"--mem-budget-mb=99999999999999999999999", FlagResult::kBad, ""},
      {"--spill-dir=spill", FlagResult::kParsed, "spill"},
      {"--spill-dir=", FlagResult::kBad, ""},
      {"--checkpoint-dir=ckpt", FlagResult::kParsed, "ckpt"},
      {"--checkpoint-dir=", FlagResult::kBad, ""},
      {"--checkpoint-every-s=30", FlagResult::kParsed, "30"},
      {"--checkpoint-every-s=0", FlagResult::kParsed, "0"},
      {"--checkpoint-every-s=", FlagResult::kBad, ""},
      {"--checkpoint-every-s=abc", FlagResult::kBad, ""},
      {"--checkpoint-every-s=-1", FlagResult::kBad, ""},
      {"--checkpoint-every-s=30s", FlagResult::kBad, ""},
      {"--checkpoint-every-s=604801", FlagResult::kBad, ""},
      {"--checkpoint-every-s=99999999999999999999", FlagResult::kBad, ""},
      {"--resume", FlagResult::kParsed, "1"},
      {"--resume=1", FlagResult::kUnknown, ""},
      {"--wrokers=4", FlagResult::kUnknown, ""},
      {"--workers", FlagResult::kUnknown, ""},
      {"workers=4", FlagResult::kUnknown, ""},
      {"--serve=8383", FlagResult::kUnknown, ""},
  };
  return rows;
}

const std::vector<Row>& SessionRows() {
  static const std::vector<Row> rows = {
      {"--metrics-out=m.json", FlagResult::kParsed, "m.json"},
      {"--metrics-out=", FlagResult::kBad, ""},
      {"--trace-out=t.json", FlagResult::kParsed, "t.json"},
      {"--trace-out=", FlagResult::kBad, ""},
      {"--events-out=e.jsonl", FlagResult::kParsed, "e.jsonl"},
      {"--events-out=", FlagResult::kBad, ""},
      {"--serve=8383", FlagResult::kParsed, "8383"},
      {"--serve=0", FlagResult::kParsed, "0"},
      {"--serve=65535", FlagResult::kParsed, "65535"},
      {"--serve=", FlagResult::kBad, ""},
      {"--serve=http", FlagResult::kBad, ""},
      {"--serve=-1", FlagResult::kBad, ""},
      {"--serve=80x", FlagResult::kBad, ""},
      {"--serve=65536", FlagResult::kBad, ""},
      {"--serve=99999999999999999999", FlagResult::kBad, ""},
      {"--serve-linger-ms=60000", FlagResult::kParsed, "60000"},
      {"--serve-linger-ms=0", FlagResult::kParsed, "0"},
      {"--serve-linger-ms=", FlagResult::kBad, ""},
      {"--serve-linger-ms=abc", FlagResult::kBad, ""},
      {"--serve-linger-ms=-1", FlagResult::kBad, ""},
      {"--serve-linger-ms=5s", FlagResult::kBad, ""},
      {"--serve-linger-ms=99999999999999999999", FlagResult::kBad, ""},
      {"--stall-timeout-ms=2000", FlagResult::kParsed, "2000"},
      {"--stall-timeout-ms=1", FlagResult::kParsed, "1"},
      {"--stall-timeout-ms=0", FlagResult::kBad, ""},
      {"--stall-timeout-ms=", FlagResult::kBad, ""},
      {"--stall-timeout-ms=abc", FlagResult::kBad, ""},
      {"--stall-timeout-ms=-1", FlagResult::kBad, ""},
      {"--stall-timeout-ms=10ms", FlagResult::kBad, ""},
      {"--stall-timeout-ms=99999999999999999999", FlagResult::kBad, ""},
      {"--serve", FlagResult::kUnknown, ""},
      {"--servex=1", FlagResult::kUnknown, ""},
      {"--quick", FlagResult::kUnknown, ""},
      {"--workers=4", FlagResult::kUnknown, ""},
  };
  return rows;
}

std::string FlagName(std::string_view arg) {
  return std::string(arg.substr(0, arg.find('=')));
}

// Every field set to a value no flag's default and no parser reset
// would write, so a parser that resets a field on a bad value is caught.
tlax::CheckerOptions NonDefaultChecker() {
  tlax::CheckerOptions o;
  o.num_workers = 3;
  o.memory_budget_mb = 7;
  o.spill_dir = "old_spill";
  o.checkpoint_dir = "old_ckpt";
  o.checkpoint_every_s = 5;
  o.resume = true;
  return o;
}

obs::SessionOptions NonDefaultSession() {
  obs::SessionOptions o;
  o.metrics_out = "old_m.json";
  o.trace_out = "old_t.json";
  o.events_out = "old_e.jsonl";
  o.serve_port = 9;
  o.serve_linger_ms = 11;
  o.stall_timeout_ms = 13;
  return o;
}

// Runs `rows` (only those for `flag`, when set) through the parser that
// `make` binds, with every flag accepted. Each row starts once from the
// default options and once from `non_default`: a good value must land in
// its field whatever was there, and a rejected one must leave every field
// as it was.
template <typename Options, typename Make, typename FieldsOf>
void ExpectRows(const std::vector<Row>& rows, Make make, unsigned all,
                FieldsOf fields_of, const Options& non_default,
                std::string_view flag = {}) {
  int checked = 0;
  for (const Row& row : rows) {
    if (!flag.empty() && FlagName(row.arg) != flag) continue;
    ++checked;
    for (bool from_default : {true, false}) {
      SCOPED_TRACE(StrCat(row.arg, from_default ? " from the defaults"
                                                : " from non-defaults"));
      Options options = from_default ? Options{} : non_default;
      const Fields before = fields_of(options);
      std::string error;
      EXPECT_EQ(make(all, &options)(row.arg, &error), row.want);
      const Fields after = fields_of(options);
      if (row.want == FlagResult::kParsed) {
        Fields expected = before;
        expected[FlagName(row.arg)] = row.value;
        EXPECT_EQ(after, expected);
        EXPECT_TRUE(error.empty()) << error;
        continue;
      }
      EXPECT_EQ(after, before) << "a failed parse must not touch the options";
      if (row.want == FlagResult::kBad) {
        EXPECT_NE(error.find(FlagName(row.arg)), std::string::npos) << error;
      } else {
        EXPECT_TRUE(error.empty()) << error;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

void ExpectCheckerRows(std::string_view flag = {}) {
  ExpectRows<tlax::CheckerOptions>(CheckerRows(), tlax::CheckerFlags,
                                   tlax::kAllCheckerFlags, CheckerFields,
                                   NonDefaultChecker(), flag);
}

void ExpectSessionRows() {
  ExpectRows<obs::SessionOptions>(SessionRows(), obs::SessionFlags,
                                  obs::kAllSessionFlags, SessionFields,
                                  NonDefaultSession());
}

TEST(SharedFlagsTest, EveryRowOfBothTables) {
  ExpectCheckerRows();
  ExpectSessionRows();
}

TEST(CheckerFlagsTest, ParseMemoryBudgetMb) {
  ExpectCheckerRows("--mem-budget-mb");
}

TEST(SharedFlagsTest, FlagsOutsideTheMaskAreNotConsumed) {
  // bench_state_space's checker subset: --checkpoint-dir is someone
  // else's flag there.
  tlax::CheckerOptions checker;
  const common::FlagParser bench =
      tlax::CheckerFlags(tlax::kWorkersFlag | tlax::kMemBudgetFlag, &checker);
  std::string error;
  EXPECT_EQ(bench("--checkpoint-dir=ckpt", &error), FlagResult::kUnknown);
  EXPECT_TRUE(checker.checkpoint_dir.empty());
  EXPECT_EQ(bench("--workers=2", &error), FlagResult::kParsed);
  EXPECT_EQ(checker.num_workers, 2);

  // xmodel_lint takes no --trace-out.
  obs::SessionOptions session;
  EXPECT_EQ(obs::SessionFlags(obs::kAllSessionFlags & ~obs::kTraceOutFlag,
                              &session)("--trace-out=t.json", &error),
            FlagResult::kUnknown);
  EXPECT_TRUE(session.trace_out.empty());
  EXPECT_TRUE(error.empty()) << error;
}

TEST(SharedFlagsTest, ParseFlagsStopsAtTheFirstRejectedArgument) {
  tlax::CheckerOptions checker;
  obs::SessionOptions session;
  const std::vector<common::FlagParser> chain = {
      tlax::CheckerFlags(tlax::kWorkersFlag, &checker),
      obs::SessionFlags(obs::kServeFlag, &session)};
  char prog[] = "prog", workers[] = "--workers=3", serve[] = "--serve=0",
       bogus[] = "--bogus", later[] = "--workers=5";
  char* good[] = {prog, workers, serve};
  EXPECT_TRUE(common::ParseFlags(3, good, "prog", chain));
  EXPECT_EQ(checker.num_workers, 3);
  EXPECT_EQ(session.serve_port, 0);
  char* bad[] = {prog, bogus, later};
  EXPECT_FALSE(common::ParseFlags(3, bad, "prog", chain));
  EXPECT_EQ(checker.num_workers, 3) << "nothing after the unknown flag runs";
}

TEST(ParseIntegerTest, SignedRangesAndExactText) {
  int64_t value = 7;
  EXPECT_TRUE(common::ParseInteger<int64_t>("-5", -10, 10, &value));
  EXPECT_EQ(value, -5);
  for (std::string_view bad : {"-11", "11", "--1", "1-", "", "0x1", " 1"}) {
    EXPECT_FALSE(common::ParseInteger<int64_t>(bad, -10, 10, &value)) << bad;
    EXPECT_EQ(value, -5);
  }
  uint64_t max = 0;
  EXPECT_TRUE(common::ParseInteger<uint64_t>(
      "18446744073709551615", 0, UINT64_MAX, &max));
  EXPECT_EQ(max, UINT64_MAX);
  EXPECT_FALSE(common::ParseInteger<uint64_t>("18446744073709551616", 0,
                                              UINT64_MAX, &max));
}

TEST(ObsSessionTest, FinishWritesMetricsAndTrace) {
  const std::string dir = StrCat(::testing::TempDir(), "/obs_session_test");
  ASSERT_TRUE(common::EnsureDir(dir).ok());
  obs::SessionOptions options;
  options.metrics_out = StrCat(dir, "/metrics.json");
  options.trace_out = StrCat(dir, "/trace.json");
  obs::Session session(options);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_EQ(session.watchdog()->stall_timeout_ms(), 30'000);
  ASSERT_TRUE(session.Finish().ok());
  std::string contents;
  EXPECT_TRUE(common::ReadFileToString(options.metrics_out, &contents).ok());
  EXPECT_NE(contents.find("xmodel.metrics.v1"), std::string::npos)
      << contents;
  EXPECT_TRUE(common::ReadFileToString(options.trace_out, &contents).ok());
  EXPECT_NE(contents.find("traceEvents"), std::string::npos) << contents;
}

TEST(ObsSessionTest, FailuresNameTheirFlag) {
  const std::string missing =
      StrCat(::testing::TempDir(), "/no_such_dir/sub/file");
  obs::SessionOptions events;
  events.events_out = missing;
  common::Status started = obs::Session(events).Start();
  EXPECT_FALSE(started.ok());
  EXPECT_NE(started.message().find("--events-out"), std::string::npos)
      << started.ToString();

  obs::SessionOptions metrics;
  metrics.metrics_out = missing;
  obs::Session session(metrics);
  ASSERT_TRUE(session.Start().ok());
  common::Status finished = session.Finish();
  EXPECT_FALSE(finished.ok());
  EXPECT_NE(finished.message().find("--metrics-out"), std::string::npos)
      << finished.ToString();
}

}  // namespace
}  // namespace xmodel
