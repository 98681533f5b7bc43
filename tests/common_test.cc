#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fileio.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/varint.h"

namespace xmodel::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad index");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad index");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat(true, false), "truefalse");
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \n"), "a b");
  EXPECT_EQ(StripWhitespace("\t\n "), "");
  EXPECT_EQ(StripWhitespace("ab"), "ab");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
}

TEST(HashTest, MixAndCombineSpreadBits) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(Mix64(0), Mix64(1));
}

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_EQ(Json::Int(42).Dump(), "42");
  EXPECT_EQ(Json::Bool(true).Dump(), "true");
  EXPECT_EQ(Json::Null().Dump(), "null");
  EXPECT_EQ(Json::Str("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(Json::Str("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json obj = Json::MakeObject();
  obj.Set("z", Json::Int(1));
  obj.Set("a", Json::Int(2));
  EXPECT_EQ(obj.Dump(), "{\"z\":1,\"a\":2}");
}

TEST(JsonTest, SetReplacesExistingKey) {
  Json obj = Json::MakeObject();
  obj.Set("k", Json::Int(1));
  obj.Set("k", Json::Int(9));
  EXPECT_EQ(obj.Dump(), "{\"k\":9}");
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string text =
      R"({"a":1,"b":[true,null,"x"],"c":{"d":-5},"e":2.5})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto parsed = Json::Parse(R"("Aé")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "A\xc3\xa9");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("12 34").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("trve").ok());
}

TEST(JsonTest, FindMember) {
  auto parsed = Json::Parse(R"({"x":7})");
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("x"), nullptr);
  EXPECT_EQ(parsed->Find("x")->int_value(), 7);
  EXPECT_EQ(parsed->Find("y"), nullptr);
}

TEST(JsonTest, Equality) {
  auto a = Json::Parse(R"({"x":[1,2]})");
  auto b = Json::Parse(R"({ "x" : [ 1 , 2 ] })");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST(JsonTest, IntegersSpanInt64AndOverflowIsCorruption) {
  // Integers print exactly as StrCat prints them, so every document the
  // tree writes (metrics export, event log, span trace, checkpoint
  // manifest) keeps its bytes.
  Rng rng(5);
  std::vector<int64_t> values = {std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(), 0, -1};
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()) >> rng.Below(64));
  }
  for (int64_t v : values) {
    ASSERT_EQ(Json::Int(v).Dump(), StrCat(v));
    auto parsed = Json::Parse(Json::Int(v).Dump());
    ASSERT_TRUE(parsed.ok()) << v;
    EXPECT_EQ(parsed->int_value(), v);
  }
  for (const char* text : {"9223372036854775808", "-9223372036854775809",
                           "12345678901234567890123", "[1e999]"}) {
    auto parsed = Json::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << text;
  }
}

TEST(JsonTest, NumbersFollowTheJsonGrammar) {
  for (const char* text : {"0", "-0", "10", "0.5", "-1.5e-3", "2E+2"}) {
    EXPECT_TRUE(Json::Parse(text).ok()) << text;
  }
  for (const char* text : {"01", "-01", "-", "1.", "1.e5", ".5", "1e", "1e+",
                           "+1", "--1", "0x10"}) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
  auto parsed = Json::Parse("-2.5e1");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->double_value(), -25.0);
}

TEST(JsonTest, NestingDepthIsBounded) {
  const size_t max = JsonCursor::kMaxDepth;
  EXPECT_TRUE(
      Json::Parse(std::string(max, '[') + std::string(max, ']')).ok());
  EXPECT_FALSE(
      Json::Parse(std::string(max + 1, '[') + std::string(max + 1, ']'))
          .ok());
  // Deep enough to overflow the stack if read by unbounded recursion.
  auto parsed = Json::Parse(std::string(1'000'000, '['));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(JsonCursorTest, ReadsAFixedSchemaInOnePass) {
  JsonCursor in(
      R"( {"n": -42, "skip": {"x": [1, {"y": null}], "z": 2.5},)"
      R"( "s": "a\"b\u00e9", "b": true} )");
  int64_t n = 0;
  std::string str;
  bool b = false;
  const bool read = in.ReadObject([&](std::string_view key) {
                      if (key == "n") return in.ReadInt(&n);
                      if (key == "s") return in.ReadString(&str);
                      if (key == "b") return in.ReadBool(&b);
                      return in.ReadValue(nullptr);
                    }) &&
                    in.ExpectEnd();
  ASSERT_TRUE(read) << in.status().ToString();
  EXPECT_EQ(n, -42);
  EXPECT_EQ(str, "a\"b\xc3\xa9");
  EXPECT_TRUE(b);
}

TEST(JsonCursorTest, FirstErrorSticks) {
  JsonCursor in("[7, 1.5, 2]");
  std::vector<int64_t> ints;
  EXPECT_FALSE(in.ReadArray([&] { return in.ReadInt(&ints.emplace_back()); }));
  EXPECT_EQ(in.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(in.status().message(), "expected an integer at offset 4");
  EXPECT_EQ(ints.front(), 7);
  // Every later call fails and keeps the first error.
  EXPECT_FALSE(in.Consume(','));
  EXPECT_FALSE(in.ReadValue(nullptr));
  EXPECT_FALSE(in.ExpectEnd());
  EXPECT_EQ(in.status().message(), "expected an integer at offset 4");
}

}  // namespace
}  // namespace xmodel::common

namespace xmodel::common {
namespace {

// Random JSON generator for round-trip property testing.
Json RandomJson(Rng* rng, int depth) {
  switch (rng->Below(depth > 0 ? 6 : 4)) {
    case 0:
      return Json::Null();
    case 1:
      return Json::Bool(rng->Chance(50));
    case 2:
      return Json::Int(rng->Range(-100000, 100000));
    case 3: {
      std::string s;
      size_t len = rng->Below(8);
      for (size_t i = 0; i < len; ++i) {
        // Mix printable chars with escapes.
        const char* alphabet = "ab\"\\\n\tz 0";
        s.push_back(alphabet[rng->Below(9)]);
      }
      return Json::Str(std::move(s));
    }
    case 4: {
      Json arr = Json::MakeArray();
      size_t len = rng->Below(4);
      for (size_t i = 0; i < len; ++i) {
        arr.Append(RandomJson(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::MakeObject();
      size_t len = rng->Below(4);
      for (size_t i = 0; i < len; ++i) {
        obj.Set(StrCat("k", i), RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST(JsonPropertyTest, DumpParseRoundTrips) {
  Rng rng(20260708);
  for (int i = 0; i < 2000; ++i) {
    Json value = RandomJson(&rng, 3);
    auto parsed = Json::Parse(value.Dump());
    ASSERT_TRUE(parsed.ok()) << value.Dump() << ": "
                             << parsed.status().ToString();
    EXPECT_TRUE(*parsed == value) << value.Dump();
  }
}

TEST(JsonPropertyTest, GarbagePrefixesRejectedOrConsistent) {
  // Parsing any PREFIX of a valid document either fails cleanly or (for a
  // prefix that happens to be complete) succeeds; it must never crash.
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::string text = RandomJson(&rng, 3).Dump();
    for (size_t cut = 0; cut < text.size(); ++cut) {
      auto parsed = Json::Parse(text.substr(0, cut));
      if (parsed.ok()) {
        EXPECT_EQ(parsed->Dump(), text.substr(0, cut));
      }
    }
  }
}

}  // namespace
}  // namespace xmodel::common

namespace xmodel::common {
namespace {

TEST(ClockTest, RealClockIsMonotonic) {
  MonotonicClock* clock = MonotonicClock::Real();
  int64_t a = clock->NowNanos();
  int64_t b = clock->NowNanos();
  EXPECT_GE(b, a);
  EXPECT_EQ(MonotonicClock::Real(), clock);  // Process-wide singleton.
}

TEST(ClockTest, FakeClockAdvancesOnlyWhenTold) {
  FakeMonotonicClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.AdvanceNanos(5);
  clock.AdvanceMicros(2);
  clock.AdvanceMs(1);
  EXPECT_EQ(clock.NowNanos(), 5 + 2'000 + 1'000'000);
}

TEST(ClockTest, FakeClockAutoAdvancePerRead) {
  FakeMonotonicClock clock;
  clock.set_auto_advance_ns(10);
  EXPECT_EQ(clock.NowNanos(), 0);   // Read returns, then advances.
  EXPECT_EQ(clock.NowNanos(), 10);
  EXPECT_EQ(clock.NowNanos(), 20);
}

TEST(ClockTest, DerivedUnitsConvert) {
  FakeMonotonicClock clock;
  clock.AdvanceMs(1'500);
  EXPECT_EQ(clock.NowMicros(), 1'500'000);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 1.5);
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16'383,
                            16'384,
                            (uint64_t{1} << 32) - 1,
                            uint64_t{1} << 32,
                            std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : cases) PutVarint64(v, &buf);
  size_t pos = 0;
  for (uint64_t v : cases) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncationIsDetected) {
  std::string buf;
  PutVarint64(std::numeric_limits<uint64_t>::max(), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(GetVarint64(std::string_view(buf.data(), cut), &pos, &v))
        << "cut=" << cut;
  }
}

TEST(VarintTest, OverflowingTenthByteRejected) {
  // Ten continuation bytes followed by a 10th byte > 1 would exceed 64
  // bits; the decoder must refuse rather than wrap.
  std::string buf(9, static_cast<char>(0x80));
  buf.push_back(0x02);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(buf, &pos, &v));
}

TEST(VarintTest, SignedZigZagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -64, 63, -65,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  std::string buf;
  for (int64_t v : cases) PutVarintSigned(v, &buf);
  size_t pos = 0;
  for (int64_t v : cases) {
    int64_t got = 0;
    ASSERT_TRUE(GetVarintSigned(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  // Small magnitudes stay short under zigzag.
  std::string small;
  PutVarintSigned(-1, &small);
  EXPECT_EQ(small.size(), 1u);
}

TEST(VarintTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(0x0123456789abcdefULL, &buf);
  EXPECT_EQ(buf.size(), 8u);
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetFixed64(buf, &pos, &v));
  EXPECT_EQ(v, 0x0123456789abcdefULL);
  pos = 1;
  EXPECT_FALSE(GetFixed64(buf, &pos, &v));
}

TEST(FileIoTest, AtomicWriteThenRead) {
  const std::string root = testing::TempDir() + "fileio_test_dir";
  const std::string dir = root + "/nested";
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/doc.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  std::string got;
  ASSERT_TRUE(ReadFileToString(path, &got).ok());
  EXPECT_EQ(got, "first");
  // Replacement is atomic: the old content is fully replaced.
  WriteFileOptions durable;
  durable.durable = true;
  ASSERT_TRUE(WriteFileAtomic(path, "second", durable).ok());
  ASSERT_TRUE(ReadFileToString(path, &got).ok());
  EXPECT_EQ(got, "second");
  Result<uint64_t> size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);
  std::vector<std::string> names;
  ASSERT_TRUE(ListDirFiles(dir, &names).ok());
  ASSERT_EQ(names.size(), 1u);  // No leftover temp files.
  EXPECT_EQ(names[0], "doc.txt");
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());  // Idempotent.
  EXPECT_EQ(ReadFileToString(path, &got).code(), StatusCode::kNotFound);
  EXPECT_EQ(::rmdir(dir.c_str()), 0);
  EXPECT_EQ(::rmdir(root.c_str()), 0);
}

TEST(FileIoTest, MissingFileIsNotFound) {
  std::string got;
  EXPECT_EQ(ReadFileToString("no_such_file_xyz", &got).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(FileSize("no_such_file_xyz").status().code(),
            StatusCode::kNotFound);
  std::vector<std::string> names;
  EXPECT_EQ(ListDirFiles("no_such_dir_xyz", &names).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace xmodel::common
