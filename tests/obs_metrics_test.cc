#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/export.h"

namespace xmodel::obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h({1.0, 10.0, 100.0});
  // Exactly on an edge lands in that edge's bucket (Prometheus `le`).
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (le = 1, inclusive)
  h.Observe(1.0001); // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(99.9);   // bucket 2
  h.Observe(100.0);  // bucket 2
  h.Observe(100.5);  // +Inf bucket
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite edges + 1 implicit +Inf.
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 100.5);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (uint64_t b : h.bucket_counts()) EXPECT_EQ(b, 0u);
}

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("checker.runs.completed");
  Counter& b = registry.GetCounter("checker.runs.completed");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("repl.writes.applied").Increment(1);
  registry.GetGauge("checker.frontier.peak").Set(7);
  registry.GetHistogram("mbtc.phase.map.ms").Observe(0.5);

  RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "checker.frontier.peak");
  EXPECT_EQ(snap.metrics[1].name, "mbtc.phase.map.ms");
  EXPECT_EQ(snap.metrics[2].name, "repl.writes.applied");

  const MetricSnapshot* gauge = snap.Find("checker.frontier.peak");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(gauge->value, 7.0);
  EXPECT_EQ(snap.Find("missing"), nullptr);
  EXPECT_TRUE(snap.HasFamily("mbtc."));
  EXPECT_FALSE(snap.HasFamily("obs."));
}

TEST(MetricsRegistryTest, ResetKeepsRegistrationsAndHandles) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("checker.runs.completed");
  Histogram& histogram = registry.GetHistogram("mbtc.phase.check.ms");
  counter.Increment(5);
  histogram.Observe(1.5);

  registry.Reset();
  EXPECT_EQ(registry.size(), 2u);  // Registrations survive.
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);

  // Cached handles keep working after Reset — the snapshot/reset cycle the
  // benches rely on.
  counter.Increment();
  EXPECT_EQ(registry.Snapshot().Find("checker.runs.completed")->value, 1.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("checker.states.generated");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, HistogramsTakeTheirDeclaredEdges) {
  MetricsRegistry registry;
  const MetricDef* def = FindMetricDef("checker.frontier.level_size");
  ASSERT_NE(def, nullptr);
  const std::vector<double>& edges =
      registry.GetHistogram("checker.frontier.level_size").upper_bounds();
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(), def->buckets.begin(),
                         def->buckets.end()));
}

// The TSan job runs this binary, and only the threadsafe style re-executes
// the test binary instead of forking a process that may hold locks.
class MetricsRegistryDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(MetricsRegistryDeathTest, UndeclaredNameAborts) {
  MetricsRegistry registry;
  EXPECT_DEATH(registry.GetCounter("checker.states.invented"),
               "'checker.states.invented' is not declared");
  EXPECT_DEATH(registry.GetGauge("checker.workerX.busy_ms"),
               "'checker.workerX.busy_ms' is not declared");
}

TEST_F(MetricsRegistryDeathTest, DeclaredNameOfAnotherKindAborts) {
  MetricsRegistry registry;
  EXPECT_DEATH(registry.GetGauge("checker.states.generated"),
               "'checker.states.generated' is declared as a counter, not a "
               "gauge");
  EXPECT_DEATH(registry.GetCounter("mbtc.phase.map.ms"),
               "'mbtc.phase.map.ms' is declared as a histogram, not a "
               "counter");
}

// A concrete name for a row: every placeholder filled with a sample value.
std::string SampleName(std::string_view pattern) {
  std::string out;
  for (size_t p = 0; p < pattern.size(); ++p) {
    if (pattern[p] != '<') {
      out += pattern[p];
      continue;
    }
    const size_t close = pattern.find('>', p);
    out += pattern.substr(p, close - p + 1) == "<N>" ? "7" : "x_1";
    p = close;
  }
  return out;
}

std::string Flattened(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

TEST(MetricDefsTest, PatternsAreWellFormed) {
  for (const MetricDef& def : MetricDefs()) {
    for (size_t p = def.name.find('<'); p != std::string_view::npos;
         p = def.name.find('<', p + 1)) {
      const size_t close = def.name.find('>', p);
      ASSERT_NE(close, std::string_view::npos) << def.name;
      EXPECT_GT(close, p + 1) << def.name;
      // Identifier placeholders stop at a dot, so one must follow.
      EXPECT_TRUE(close + 1 == def.name.size() || def.name[close + 1] == '.')
          << def.name;
    }
    const std::string sample = SampleName(def.name);
    EXPECT_EQ(FindMetricDef(sample), &def) << sample;
  }
  EXPECT_NE(FindMetricDef("checker.worker12.busy_ms"), nullptr);
  EXPECT_EQ(FindMetricDef("checker.worker.busy_ms"), nullptr);
  EXPECT_EQ(FindMetricDef("checker.worker1x.busy_ms"), nullptr);
  EXPECT_NE(FindMetricDef("analysis.domain.array_ot.exhaustive"), nullptr);
  EXPECT_EQ(FindMetricDef("analysis.domain.a.b.exhaustive"), nullptr);
}

TEST(MetricDefsTest, RowsStayDistinctAfterPrometheusFlattening) {
  std::set<std::string> flattened;
  for (const MetricDef& def : MetricDefs()) {
    EXPECT_TRUE(flattened.insert(Flattened(def.name)).second) << def.name;
  }
}

TEST(MetricDefsTest, RowsAreComplete) {
  for (const MetricDef& def : MetricDefs()) {
    EXPECT_FALSE(def.unit.empty()) << def.name;
    EXPECT_FALSE(def.help.empty()) << def.name;
    EXPECT_EQ(def.kind == MetricKind::kHistogram, !def.buckets.empty())
        << def.name;
    EXPECT_TRUE(std::is_sorted(def.buckets.begin(), def.buckets.end()) &&
                std::adjacent_find(def.buckets.begin(), def.buckets.end()) ==
                    def.buckets.end())
        << def.name << ": histogram edges must strictly ascend";
  }
}

TEST(ExportTest, PrometheusTextHasCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("checker.states.generated").Increment(10);
  Histogram& h = registry.GetHistogram("mbtc.phase.check.ms");
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);

  std::string text = ToPrometheusText(registry.Snapshot());
  // Dots become underscores; counters print integrally.
  EXPECT_NE(text.find("# TYPE checker_states_generated counter"),
            std::string::npos);
  EXPECT_NE(text.find("checker_states_generated 10\n"), std::string::npos);
  // Buckets are cumulative with le labels, ending at +Inf == count.
  EXPECT_NE(text.find("mbtc_phase_check_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mbtc_phase_check_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("mbtc_phase_check_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("mbtc_phase_check_ms_count 3"), std::string::npos);
}

TEST(ExportTest, PrometheusTextWritesHelpBeforeType) {
  MetricsRegistry registry;
  registry.GetCounter("checker.states.generated").Increment(10);
  registry.GetHistogram("mbtc.phase.check.ms").Observe(1);

  const std::string text = ToPrometheusText(registry.Snapshot());
  for (const char* name :
       {"checker.states.generated", "mbtc.phase.check.ms"}) {
    const MetricDef* def = FindMetricDef(name);
    ASSERT_NE(def, nullptr);
    const std::string help = "# HELP " + Flattened(name) + " " +
                             std::string(def->help) + " [" +
                             std::string(def->unit) + "]\n";
    const size_t help_at = text.find(help);
    ASSERT_NE(help_at, std::string::npos) << help;
    EXPECT_EQ(text.find("# TYPE " + Flattened(name) + " "),
              help_at + help.size())
        << name;
  }
}

TEST(ExportTest, JsonSnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("repl.writes.applied").Increment(4);
  registry.GetGauge("repl.sim.wall_ratio").Set(123.5);
  registry.GetHistogram("mbtc.phase.parse.ms").Observe(0.005);

  common::Json doc = ToJson(registry.Snapshot());
  auto parsed = common::Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const common::Json* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value(), "xmodel.metrics.v1");

  const common::Json* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const common::Json* counter = metrics->Find("repl.writes.applied");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("kind")->string_value(), "counter");
  EXPECT_EQ(counter->Find("value")->int_value(), 4);

  const common::Json* histogram = metrics->Find("mbtc.phase.parse.ms");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->Find("count")->int_value(), 1);
  ASSERT_EQ(histogram->Find("buckets")->array().size(),
            FindMetricDef("mbtc.phase.parse.ms")->buckets.size() + 1);
  EXPECT_EQ(histogram->Find("buckets")->array()[0].int_value(), 1);
}

// The per-phase pipeline histograms share one latency ladder, 0.01 ms to
// 30 s.
TEST(ExportTest, DefaultLatencyBucketsAreAscending) {
  const MetricDef* parse = FindMetricDef("mbtc.phase.parse.ms");
  ASSERT_NE(parse, nullptr);
  const std::span<const double> buckets = parse->buckets;
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets.front(), 0.01);
  EXPECT_DOUBLE_EQ(buckets.back(), 30'000);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]);
  }
  for (const char* name : {"mbtc.phase.map.ms", "mbtc.phase.check.ms"}) {
    EXPECT_EQ(FindMetricDef(name)->buckets.data(), buckets.data()) << name;
  }
}

}  // namespace
}  // namespace xmodel::obs
