#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tlax/state.h"
#include "tlax/tla_text.h"
#include "tlax/value.h"

namespace xmodel::tlax {
namespace {

TEST(ValueTest, NilAndScalars) {
  EXPECT_TRUE(Value::Nil().is_nil());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int(-3).int_value(), -3);
  EXPECT_EQ(Value::Str("abc").string_value(), "abc");
}

TEST(ValueTest, EqualityAndHash) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_NE(Value::Int(5), Value::Int(6));
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_EQ(Value::Int(5).hash(), Value::Int(5).hash());
  EXPECT_EQ(Value::Seq({Value::Int(1), Value::Int(2)}),
            Value::Seq({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, SetNormalization) {
  Value a = Value::SetOf({Value::Int(2), Value::Int(1), Value::Int(2)});
  Value b = Value::SetOf({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.SetContains(Value::Int(1)));
  EXPECT_FALSE(a.SetContains(Value::Int(3)));
}

TEST(ValueTest, RecordFieldOrderIrrelevant) {
  Value a = Value::Record({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value b = Value::Record({{"y", Value::Int(2)}, {"x", Value::Int(1)}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.FieldOrDie("y").int_value(), 2);
  EXPECT_EQ(a.Field("z"), nullptr);
}

TEST(ValueTest, WithFieldReplaces) {
  Value a = Value::Record({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value b = a.WithField("x", Value::Int(9));
  EXPECT_EQ(b.FieldOrDie("x").int_value(), 9);
  EXPECT_EQ(b.FieldOrDie("y").int_value(), 2);
  EXPECT_EQ(a.FieldOrDie("x").int_value(), 1);  // Original untouched.
}

TEST(ValueTest, SeqOperations) {
  Value s = Value::Seq({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.Index1(1).int_value(), 1);
  EXPECT_EQ(s.at(2).int_value(), 3);

  Value appended = s.Append(Value::Int(4));
  EXPECT_EQ(appended.size(), 4u);
  EXPECT_EQ(s.size(), 3u);

  Value sub = s.SubSeq(2, 3);
  EXPECT_EQ(sub, Value::Seq({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(s.SubSeq(3, 2), Value::EmptySeq());
  EXPECT_EQ(s.SubSeq(4, 9), Value::EmptySeq());
  // TLA SubSeq clamps the upper bound.
  EXPECT_EQ(s.SubSeq(1, 100).size(), 3u);

  Value replaced = s.WithIndex1(2, Value::Int(7));
  EXPECT_EQ(replaced.Index1(2).int_value(), 7);

  Value cat = s.Concat(sub);
  EXPECT_EQ(cat.size(), 5u);
}

TEST(ValueTest, TotalOrderIsStrict) {
  std::vector<Value> values = {
      Value::Nil(),
      Value::Bool(false),
      Value::Bool(true),
      Value::Int(-1),
      Value::Int(3),
      Value::Str("a"),
      Value::Str("b"),
      Value::Seq({Value::Int(1)}),
      Value::SetOf({Value::Int(1)}),
      Value::Record({{"k", Value::Int(1)}}),
  };
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      int c = Value::Compare(values[i], values[j]);
      if (i == j) {
        EXPECT_EQ(c, 0) << i;
      } else {
        EXPECT_NE(c, 0) << i << " vs " << j;
        EXPECT_EQ(c, -Value::Compare(values[j], values[i]));
      }
    }
  }
}

TEST(ValueTest, ToTla) {
  EXPECT_EQ(Value::Nil().ToTla(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToTla(), "TRUE");
  EXPECT_EQ(Value::Int(-7).ToTla(), "-7");
  EXPECT_EQ(Value::Str("Leader").ToTla(), "\"Leader\"");
  EXPECT_EQ(Value::Seq({Value::Int(1), Value::Str("a")}).ToTla(),
            "<<1, \"a\">>");
  EXPECT_EQ(Value::SetOf({Value::Int(2), Value::Int(1)}).ToTla(), "{1, 2}");
  EXPECT_EQ(Value::Record({{"ndx", Value::Int(0)}}).ToTla(), "[ndx |-> 0]");
  EXPECT_EQ(Value::EmptySeq().ToTla(), "<<>>");
}

TEST(StateTest, FingerprintDistinguishesStates) {
  State a({Value::Int(1), Value::Int(2)});
  State b({Value::Int(2), Value::Int(1)});
  State c({Value::Int(1), Value::Int(2)});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

TEST(StateTest, WithReplacesOneVariable) {
  State a({Value::Int(1), Value::Int(2)});
  State b = a.With(1, Value::Int(9));
  EXPECT_EQ(b.var(0).int_value(), 1);
  EXPECT_EQ(b.var(1).int_value(), 9);
  EXPECT_EQ(a.var(1).int_value(), 2);
}

TEST(StateTest, WiderThanInlineBufferUsesHeapPath) {
  std::vector<Value> wide;
  for (int i = 0; i < 12; ++i) wide.push_back(Value::Int(i));
  ASSERT_GT(wide.size(), State::kInlineVars);
  State a(wide);
  EXPECT_EQ(a.num_vars(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(a.var(i).int_value(), i);

  State b = a.With(10, Value::Int(99));
  EXPECT_EQ(b.var(10).int_value(), 99);
  EXPECT_EQ(a.var(10).int_value(), 10);  // Original untouched.
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(b, State(std::vector<Value>{
                 Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3),
                 Value::Int(4), Value::Int(5), Value::Int(6), Value::Int(7),
                 Value::Int(8), Value::Int(9), Value::Int(99),
                 Value::Int(11)}));
}

TEST(StateTest, IncrementalFingerprintMatchesFromScratch) {
  // A chain of With() updates (O(1) incremental fingerprint maintenance)
  // must land on exactly the fingerprint a from-scratch construction of
  // the same variable vector computes.
  State s({Value::Int(0), Value::Str("seed"), Value::EmptySeq()});
  s = s.With(0, Value::Int(41));
  s = s.With(2, Value::Seq({Value::Int(1), Value::Int(2)}));
  s = s.With(0, Value::Int(42));
  State rebuilt({Value::Int(42), Value::Str("seed"),
                 Value::Seq({Value::Int(1), Value::Int(2)})});
  EXPECT_EQ(s.fingerprint(), rebuilt.fingerprint());
  EXPECT_EQ(s, rebuilt);
}

TEST(StateTest, VarsSpanSeesEveryVariable) {
  State s({Value::Int(7), Value::Str("x")});
  auto span = s.vars();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].int_value(), 7);
  EXPECT_EQ(span[1].string_value(), "x");
}

TEST(ValueInternTest, SmallValuesAreInline) {
  EXPECT_TRUE(Value::Nil().is_inline());
  EXPECT_TRUE(Value::Bool(true).is_inline());
  EXPECT_TRUE(Value::Int(123456789).is_inline());
  EXPECT_TRUE(Value::Str("").is_inline());
  EXPECT_TRUE(Value::Str("exactly15bytes!").is_inline());  // == kSmallStrMax
  EXPECT_FALSE(Value::Str("sixteen bytes!!!").is_inline());
  EXPECT_FALSE(Value::EmptySeq().is_inline());
  EXPECT_EQ(Value::Int(5).interned_rep(), nullptr);
}

TEST(ValueInternTest, ShortAndLongStringsHashConsistently) {
  // A string's hash must not depend on its storage class, or set
  // normalization and state fingerprints would depend on string length.
  const std::string boundary(Value::kSmallStrMax, 'q');
  EXPECT_EQ(Value::Str(boundary).hash(),
            Value::Str(std::string_view(boundary)).hash());
  EXPECT_EQ(Value::Str(boundary), Value::Str(boundary));
  const std::string longer(Value::kSmallStrMax + 20, 'q');
  EXPECT_EQ(Value::Str(longer), Value::Str(longer));
  EXPECT_NE(Value::Str(boundary), Value::Str(longer));
}

TEST(ValueInternTest, StructurallyEqualCompositesShareOneRep) {
  Value a = Value::Seq({Value::Int(1), Value::Str("dedup-seq")});
  Value b = Value::Seq({Value::Int(1), Value::Str("dedup-seq")});
  ASSERT_NE(a.interned_rep(), nullptr);
  EXPECT_EQ(a.interned_rep(), b.interned_rep());

  Value r1 = Value::Record({{"k", a}, {"n", Value::Int(2)}});
  Value r2 = Value::Record({{"n", Value::Int(2)}, {"k", b}});
  EXPECT_EQ(r1.interned_rep(), r2.interned_rep());

  // Functional updates land on the canonical rep too.
  Value s1 = Value::SetOf({Value::Int(1), Value::Int(3)});
  Value s2 = Value::SetOf({Value::Int(1)}).SetInsert(Value::Int(3));
  EXPECT_EQ(s1.interned_rep(), s2.interned_rep());

  // Inserting an existing member returns the identical rep, not a copy.
  EXPECT_EQ(s1.SetInsert(Value::Int(3)).interned_rep(), s1.interned_rep());
}

TEST(ValueInternTest, StatsCountHitsMissesAndLive) {
  const Value::InternStats before = Value::GetInternStats();
  // Contents distinctive enough that no other test interned them.
  Value fresh = Value::Seq(
      {Value::Str("intern-stats-test-novel-element"), Value::Int(-777001)});
  const Value::InternStats after_miss = Value::GetInternStats();
  // The long string and the seq itself: at least two new reps.
  EXPECT_GE(after_miss.misses, before.misses + 2);
  EXPECT_EQ(after_miss.live, before.live + (after_miss.misses - before.misses));
  EXPECT_GT(after_miss.bytes, before.bytes);

  Value again = Value::Seq(
      {Value::Str("intern-stats-test-novel-element"), Value::Int(-777001)});
  const Value::InternStats after_hit = Value::GetInternStats();
  EXPECT_EQ(again.interned_rep(), fresh.interned_rep());
  EXPECT_EQ(after_hit.misses, after_miss.misses);  // No new reps.
  EXPECT_EQ(after_hit.live, after_miss.live);
  EXPECT_GE(after_hit.hits, after_miss.hits + 2);
}

TEST(ValueInternTest, HashCollisionFallsBackToStructuralCompare) {
  internal::ScopedWeakCompositeHashForTesting weak;
  // Under the weak regime every sequence hashes identically, so these two
  // collide in the intern table and in operator== — which must fall back
  // to a structural walk, keep them distinct, and still dedup true equals.
  Value a = Value::Seq({Value::Str("weak-hash-a"), Value::Int(1)});
  Value b = Value::Seq({Value::Str("weak-hash-b"), Value::Int(2)});
  ASSERT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, b);
  EXPECT_NE(a.interned_rep(), b.interned_rep());
  EXPECT_NE(Value::Compare(a, b), 0);

  Value a2 = Value::Seq({Value::Str("weak-hash-a"), Value::Int(1)});
  EXPECT_EQ(a2.interned_rep(), a.interned_rep());
  EXPECT_EQ(a2, a);

  // Sets of colliding elements still normalize correctly.
  Value set = Value::SetOf({b, a, b});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.SetContains(a));
  EXPECT_TRUE(set.SetContains(b));
}

TEST(ValueInternTest, MultiThreadInternHammer) {
  // Many threads intern the same composites concurrently; every thread
  // must resolve to the same canonical rep, with no torn stats. Runs
  // under the TSan CI job.
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  // Intern requests per iteration: the shared string, seq and record, and
  // the private string and seq (the ints are inline).
  constexpr uint64_t kInternsPerIter = 5;
  const Value::InternStats before = Value::GetInternStats();
  std::vector<const void*> first_rep(kThreads, nullptr);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &first_rep, &mismatches] {
      for (int i = 0; i < kIters; ++i) {
        Value shared = Value::Record(
            {{"hammer", Value::Int(i % 16)},
             {"payload", Value::Seq({Value::Str("intern-hammer-shared"),
                                     Value::Int(i % 16)})}});
        Value mine = Value::Seq(
            {Value::Str("intern-hammer-private"), Value::Int(t),
             Value::Int(i % 8)});
        if (i % 16 == 0) {
          if (first_rep[t] == nullptr) first_rep[t] = shared.interned_rep();
          if (shared.interned_rep() != first_rep[t]) mismatches.fetch_add(1);
        }
        if (mine.at(1).int_value() != t) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(first_rep[t], first_rep[0]) << "thread " << t;
  }
  const Value::InternStats stats = Value::GetInternStats();
  EXPECT_GE(stats.live, 1u);
  EXPECT_LE(stats.live, stats.misses);
  // Every request counts exactly once, hit or miss, including the hits of
  // threads that have since exited.
  EXPECT_EQ((stats.hits + stats.misses) - (before.hits + before.misses),
            kInternsPerIter * kThreads * kIters);
}

// Prefix() is the same rep as SubSeq(1, n - 1) whichever way the sequence
// was built, and once linked it answers without an intern lookup.
TEST(ValueInternTest, PrefixLinkMatchesSubSeq) {
  auto check = [](const Value& seq, const char* how) {
    SCOPED_TRACE(how);
    ASSERT_TRUE(seq.is_seq());
    ASSERT_GT(seq.size(), 0u);
    const Value prefix = seq.Prefix();
    EXPECT_EQ(prefix.interned_rep(),
              seq.SubSeq(1, seq.size() - 1).interned_rep());
    const Value::InternStats before = Value::GetInternStats();
    EXPECT_EQ(seq.Prefix().interned_rep(), prefix.interned_rep());
    const Value::InternStats after = Value::GetInternStats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits, before.hits);  // Read from the link.
  };
  // Distinctive contents: each case starts from reps no other test linked.
  check(Value::Seq({Value::Int(1), Value::Str("prefix-link-seq"),
                    Value::Int(3)}),
        "Seq");
  check(Value::Seq({Value::Str("prefix-link-one")}), "one element");
  EXPECT_EQ(Value::Seq({Value::Str("prefix-link-one")}).Prefix(),
            Value::EmptySeq());

  // Append with an intern miss links the fresh rep to its operand.
  const Value base = Value::Seq({Value::Str("prefix-link-miss")});
  const Value missed = base.Append(Value::Int(2));
  check(missed, "Append miss");
  EXPECT_EQ(missed.Prefix().interned_rep(), base.interned_rep());

  // Append with an intern hit links a rep Seq built with no link, so its
  // first Prefix() already makes no lookup.
  const Value built =
      Value::Seq({Value::Str("prefix-link-hit"), Value::Int(1)});
  const Value hit_base = Value::Seq({Value::Str("prefix-link-hit")});
  const Value hit = hit_base.Append(Value::Int(1));
  ASSERT_EQ(hit.interned_rep(), built.interned_rep());
  const Value::InternStats before_hit = Value::GetInternStats();
  EXPECT_EQ(built.Prefix().interned_rep(), hit_base.interned_rep());
  const Value::InternStats after_hit = Value::GetInternStats();
  EXPECT_EQ(after_hit.misses, before_hit.misses);
  EXPECT_EQ(after_hit.hits, before_hit.hits);
  check(hit, "Append hit");

  check(Value::Seq({Value::Str("prefix-link-subseq"), Value::Int(1),
                    Value::Int(2), Value::Int(3)})
            .SubSeq(1, 3),
        "SubSeq");
  auto parsed = ParseTlaValue(R"(<<"prefix-link-parsed", 1, <<2>>, {3}>>)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  check(*parsed, "ParseTlaValue");

  // A walk down an Append-built chain meets every shorter SubSeq.
  Value chain = Value::Seq({Value::Str("prefix-link-chain")});
  for (int i = 0; i < 6; ++i) chain = chain.Append(Value::Int(i));
  const Value full = chain;
  for (size_t n = full.size(); n > 1; --n) {
    chain = chain.Prefix();
    EXPECT_EQ(chain.interned_rep(), full.SubSeq(1, n - 1).interned_rep());
  }
}

TEST(ValueInternTest, PrefixLinkHammer) {
  // Threads race to link the same reps: Append links its result on an
  // intern hit or miss, and Prefix() fills the missing links of reps Seq
  // built. Every link must name the canonical prefix. Runs under the TSan
  // CI job.
  constexpr int kThreads = 4;
  constexpr int kLen = 48;
  constexpr int kRounds = 20;
  std::vector<Value> unlinked;  // unlinked[k] has k + 1 elements.
  std::vector<Value> elems = {Value::Str("prefix-hammer-seq")};
  for (int k = 0; k < kLen; ++k) {
    unlinked.push_back(Value::Seq(elems));
    elems.push_back(Value::Int(k));
  }
  std::atomic<int> mismatches{0};
  std::vector<const void*> last(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &unlinked, &mismatches, &last] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kLen; ++i) {
          const size_t k = static_cast<size_t>((i * (t + 1) + round) % kLen);
          const Value expected =
              k == 0 ? Value::EmptySeq() : unlinked[k - 1];
          if (unlinked[k].Prefix() != expected) mismatches.fetch_add(1);
        }
        Value seq = Value::Seq({Value::Str("prefix-hammer-append")});
        for (int i = 0; i < kLen; ++i) {
          const Value longer = seq.Append(Value::Int(i % 5));
          if (longer.Prefix().interned_rep() != seq.interned_rep()) {
            mismatches.fetch_add(1);
          }
          seq = longer;
        }
        last[static_cast<size_t>(t)] = seq.interned_rep();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(last[t], last[0]);
}

// A composite with a long string, a set, an Append-built sequence and a
// record around them; `tag` makes its reps new to the intern table.
Value ScopeSample(const std::string& tag, int i) {
  const Value seq = Value::Seq({Value::Str("scope-sample-" + tag)})
                        .Append(Value::Int(i))
                        .Append(Value::Int(i % 3));
  return Value::Record(
      {{"long", Value::Str("scope-sample-long-string-" + tag)},
       {"seq", seq},
       {"set", Value::SetOf({Value::Int(i), Value::Int(i % 4), seq})}});
}

TEST(ValueInternScopeTest, ScopedValuesEqualGlobalOnes) {
  // The scoped thread builds the values first, so they are private reps;
  // another thread (outside any scope) then builds them globally. Every
  // observable but identity must agree.
  constexpr int kValues = 8;
  const Value before_scope = ScopeSample("eq-pre", 0);
  Value::InternScope scope;
  // A value interned before the scope is found, not copied.
  EXPECT_EQ(ScopeSample("eq-pre", 0).interned_rep(),
            before_scope.interned_rep());
  EXPECT_FALSE(ScopeSample("eq-pre", 0).is_scoped());
  std::vector<Value> scoped;
  for (int i = 0; i < kValues; ++i) scoped.push_back(ScopeSample("eq", i));
  std::vector<Value> global(kValues);
  std::thread([&global] {
    for (int i = 0; i < kValues; ++i) global[i] = ScopeSample("eq", i);
  }).join();
  for (int i = 0; i < kValues; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(scoped[i].is_scoped());
    ASSERT_FALSE(global[i].is_scoped());
    EXPECT_NE(scoped[i].interned_rep(), global[i].interned_rep());
    EXPECT_EQ(scoped[i], global[i]);
    EXPECT_EQ(scoped[i].hash(), global[i].hash());
    EXPECT_EQ(Value::Compare(scoped[i], global[i]), 0);
    EXPECT_EQ(scoped[i].ToTla(), global[i].ToTla());
    EXPECT_EQ(scoped[i].FieldOrDie("long").string_value(),
              global[i].FieldOrDie("long").string_value());
    for (int j = 0; j < kValues; ++j) {
      EXPECT_EQ(Value::Compare(scoped[i], global[j]),
                Value::Compare(global[i], global[j]));
    }
    const State a({scoped[i], Value::Int(i)});
    const State b({global[i], Value::Int(i)});
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a, b);
  }
}

TEST(ValueInternScopeTest, CloseReturnsLiveAndBytes) {
  const Value::InternStats before = Value::GetInternStats();
  {
    Value::InternScope scope;
    for (int i = 0; i < 64; ++i) ScopeSample("stats", i);
    const Value::InternStats open = Value::GetInternStats();
    EXPECT_GT(open.live, before.live);
    EXPECT_GT(open.bytes, before.bytes);
    EXPECT_GT(open.misses, before.misses);
  }
  const Value::InternStats after = Value::GetInternStats();
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.bytes, before.bytes);
  // The same values built after the close are new global reps.
  const Value global = ScopeSample("stats", 0);
  EXPECT_FALSE(global.is_scoped());
  EXPECT_GT(Value::GetInternStats().live, after.live);
}

TEST(ValueInternScopeTest, GlobalPrefixTakenInScopeSurvivesClose) {
  // Seq builds a global rep with no prefix link, and its prefix exists
  // nowhere yet: Prefix() inside the scope makes a scoped one.
  const Value seq = Value::Seq({Value::Str("scope-prefix-global"),
                                Value::Int(1), Value::Int(2)});
  // Append inside the scope hits this global rep from a scoped operand.
  const Value appended_target = Value::Seq(
      {Value::Str("scope-prefix-append"), Value::Int(1), Value::Int(2)});
  {
    Value::InternScope scope;
    const Value prefix = seq.Prefix();
    EXPECT_TRUE(prefix.is_scoped());
    EXPECT_EQ(prefix.ToTla(), R"(<<"scope-prefix-global", 1>>)");
    const Value scoped_base =
        Value::Seq({Value::Str("scope-prefix-append"), Value::Int(1)});
    ASSERT_TRUE(scoped_base.is_scoped());
    const Value hit = scoped_base.Append(Value::Int(2));
    EXPECT_EQ(hit.interned_rep(), appended_target.interned_rep());
    EXPECT_EQ(hit.Prefix(), scoped_base);
  }
  // Neither global rep kept a link to the freed scoped prefix.
  const Value prefix = seq.Prefix();
  EXPECT_FALSE(prefix.is_scoped());
  EXPECT_EQ(prefix.interned_rep(), seq.SubSeq(1, 2).interned_rep());
  EXPECT_EQ(prefix.ToTla(), R"(<<"scope-prefix-global", 1>>)");
  const Value target_prefix = appended_target.Prefix();
  EXPECT_FALSE(target_prefix.is_scoped());
  EXPECT_EQ(target_prefix.ToTla(), R"(<<"scope-prefix-append", 1>>)");
}

TEST(ValueInternScopeTest, NestedScopesFreeOnlyAtOutermostClose) {
  const Value::InternStats before = Value::GetInternStats();
  {
    Value::InternScope outer;
    const Value first = ScopeSample("nested-outer", 1);
    Value inner_value;
    uint64_t live_in_inner = 0;
    {
      Value::InternScope inner;
      inner_value = ScopeSample("nested-inner", 2);
      live_in_inner = Value::GetInternStats().live;
    }
    // The inner close freed nothing: its values are still readable.
    EXPECT_EQ(Value::GetInternStats().live, live_in_inner);
    EXPECT_TRUE(inner_value.is_scoped());
    EXPECT_EQ(inner_value, ScopeSample("nested-inner", 2));
    EXPECT_EQ(inner_value.FieldOrDie("long").string_value(),
              "scope-sample-long-string-nested-inner");
    EXPECT_TRUE(first.is_scoped());
  }
  const Value::InternStats after = Value::GetInternStats();
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(ValueInternScopeTest, ScopedThreadsRaceGlobalInterning) {
  // Two threads, each in its own scope, build the same values while a
  // third interns them globally and publishes them. Every scoped value
  // must equal its published global twin; afterwards the global table
  // holds exactly the third thread's reps. Runs under the TSan CI job.
  constexpr int kValues = 64;
  constexpr int kRounds = 10;
  std::vector<Value> global(kValues);
  std::atomic<int> published{0};
  std::atomic<int> mismatches{0};
  std::thread global_thread([&global, &published] {
    for (int i = 0; i < kValues; ++i) {
      global[i] = ScopeSample("race", i);
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> scoped_threads;
  for (int t = 0; t < 2; ++t) {
    scoped_threads.emplace_back([&global, &published, &mismatches] {
      for (int round = 0; round < kRounds; ++round) {
        Value::InternScope scope;
        for (int i = 0; i < kValues; ++i) {
          const Value mine = ScopeSample("race", i);
          if (mine.FieldOrDie("seq").Prefix().Prefix().ToTla() !=
              R"(<<"scope-sample-race">>)") {
            mismatches.fetch_add(1);
          }
          if (i >= published.load(std::memory_order_acquire)) continue;
          const Value& theirs = global[i];
          if (mine != theirs || mine.hash() != theirs.hash() ||
              Value::Compare(mine, theirs) != 0 ||
              mine.ToTla() != theirs.ToTla()) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  global_thread.join();
  for (auto& th : scoped_threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (int i = 0; i < kValues; ++i) {
    const Value again = ScopeSample("race", i);
    EXPECT_FALSE(again.is_scoped());
    EXPECT_EQ(again.interned_rep(), global[i].interned_rep()) << i;
  }
}

}  // namespace
}  // namespace xmodel::tlax
