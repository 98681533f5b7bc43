#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "repl/rollback_fuzzer.h"
#include "repl/scenarios.h"
#include "trace/event_processor.h"
#include "trace/mbtc_pipeline.h"
#include "trace/trace_event.h"
#include "trace/trace_logger.h"
#include "tlax/tla_text.h"
#include "tlax/trace_check.h"
#include "tlax/value.h"

namespace xmodel::trace {
namespace {

using repl::OpTime;
using specs::RaftMongoConfig;
using specs::RaftMongoSpec;
using specs::RaftMongoVariant;

TEST(TraceEventTest, JsonRoundTrip) {
  TraceEvent e;
  e.timestamp_ms = 12345;
  e.node_id = 2;
  e.action = "ClientWrite";
  e.role = "Leader";
  e.term = 3;
  e.commit_point = OpTime{2, 7};
  e.oplog_terms = {1, 2, 3};
  e.oplog_from_stale_snapshot = true;

  auto parsed = TraceEvent::FromJsonLine(e.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->timestamp_ms, 12345);
  EXPECT_EQ(parsed->node_id, 2);
  EXPECT_EQ(parsed->action, "ClientWrite");
  EXPECT_EQ(*parsed->role, "Leader");
  EXPECT_EQ(*parsed->term, 3);
  EXPECT_EQ(*parsed->commit_point, (OpTime{2, 7}));
  EXPECT_EQ(*parsed->oplog_terms, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_TRUE(parsed->oplog_from_stale_snapshot);
}

TEST(TraceEventTest, NullCommitPointRoundTrip) {
  TraceEvent e;
  e.timestamp_ms = 1;
  e.node_id = 0;
  e.action = "Stepdown";
  e.commit_point = OpTime{};
  auto parsed = TraceEvent::FromJsonLine(e.ToJsonLine());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->commit_point.has_value());
  EXPECT_TRUE(parsed->commit_point->IsNull());
  EXPECT_FALSE(parsed->role.has_value());  // Partial event.
}

TEST(TraceEventTest, RejectsMalformedLines) {
  EXPECT_FALSE(TraceEvent::FromJsonLine("not json").ok());
  EXPECT_FALSE(TraceEvent::FromJsonLine("{}").ok());
  EXPECT_FALSE(TraceEvent::FromJsonLine(R"({"t":1,"node":0})").ok());
  EXPECT_FALSE(
      TraceEvent::FromJsonLine(R"({"t":1,"node":0,"action":"x","commitPoint":{"term":1}})")
          .ok());
}

TEST(TraceEventTest, RejectsWrongTypedFields) {
  // Each line is well-formed JSON whose field has the wrong type or is out
  // of its field's range. None may decode to a default or wrapped value.
  const char* lines[] = {
      R"({"t":"x","node":0,"action":"a"})",
      R"({"t":1,"node":"zero","action":"a"})",
      R"({"t":1,"node":0,"action":7})",
      R"({"t":1,"node":0,"action":"a","oplog":["a",{}]})",
      R"({"t":12345678901234567890123,"node":0,"action":"a"})",
      R"({"t":1.9,"node":0,"action":"a"})",
      R"({"t":1,"node":4294967296,"action":"a"})",
      R"({"t":1,"node":-2147483649,"action":"a"})",
      R"({"t":1,"node":0,"action":"a","role":5})",
      R"({"t":1,"node":0,"action":"a","role":null})",
      R"({"t":1,"node":0,"action":"a","term":"1"})",
      R"({"t":1,"node":0,"action":"a","term":1e3})",
      R"({"t":1,"node":0,"action":"a","commitPoint":3})",
      R"({"t":1,"node":0,"action":"a","commitPoint":{"term":"1","index":2}})",
      R"({"t":1,"node":0,"action":"a","oplog":{}})",
      R"({"t":1,"node":0,"action":"a","oplog":[1.5]})",
      R"({"t":1,"node":0,"action":"a","stale":1})",
  };
  for (const char* line : lines) {
    auto parsed = TraceEvent::FromJsonLine(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), common::StatusCode::kCorruption)
        << line << ": " << parsed.status().ToString();
  }
  // The same fields with the right types decode.
  auto good = TraceEvent::FromJsonLine(
      R"({"t":-9223372036854775808,"node":-2147483648,"action":"a",)"
      R"("role":"r","term":1,"commitPoint":{"term":1,"index":2},)"
      R"("oplog":[],"stale":false,"extra":[{"k":[null,1.5,"s"]}]})");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->timestamp_ms, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(good->node_id, std::numeric_limits<int>::min());
  EXPECT_TRUE(good->oplog_terms->empty());
  EXPECT_FALSE(good->oplog_from_stale_snapshot);
}

// Per-node log files of one rollback-fuzzer run.
std::vector<std::vector<std::string>> FuzzerLogFiles(
    repl::RollbackFuzzerOptions options, bool partial_state_logging) {
  repl::ReplicaSet rs(options.config);
  TraceLoggerOptions logger_options;
  logger_options.partial_state_logging = partial_state_logging;
  TraceLogger logger(&rs.clock(), logger_options);
  rs.AttachTraceSink(&logger);
  repl::RollbackFuzzer(options).Run(&rs);
  return logger.LogFiles(rs.num_nodes());
}

// The same fields as a common::Json tree, in the order the log line
// format fixes.
common::Json TreeOf(const TraceEvent& e) {
  using common::Json;
  Json obj = Json::MakeObject();
  obj.Set("t", Json::Int(e.timestamp_ms));
  obj.Set("node", Json::Int(e.node_id));
  obj.Set("action", Json::Str(e.action));
  if (e.role.has_value()) obj.Set("role", Json::Str(*e.role));
  if (e.term.has_value()) obj.Set("term", Json::Int(*e.term));
  if (e.commit_point.has_value()) {
    if (e.commit_point->IsNull()) {
      obj.Set("commitPoint", Json::Null());
    } else {
      Json cp = Json::MakeObject();
      cp.Set("term", Json::Int(e.commit_point->term));
      cp.Set("index", Json::Int(e.commit_point->index));
      obj.Set("commitPoint", std::move(cp));
    }
  }
  if (e.oplog_terms.has_value()) {
    Json arr = Json::MakeArray();
    for (int64_t t : *e.oplog_terms) arr.Append(Json::Int(t));
    obj.Set("oplog", std::move(arr));
  }
  if (e.oplog_from_stale_snapshot) obj.Set("stale", Json::Bool(true));
  return obj;
}

void ExpectSameEvent(const TraceEvent& a, const TraceEvent& b) {
  EXPECT_EQ(a.timestamp_ms, b.timestamp_ms);
  EXPECT_EQ(a.node_id, b.node_id);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.role, b.role);
  EXPECT_EQ(a.term, b.term);
  EXPECT_EQ(a.commit_point, b.commit_point);
  EXPECT_EQ(a.oplog_terms, b.oplog_terms);
  EXPECT_EQ(a.oplog_from_stale_snapshot, b.oplog_from_stale_snapshot);
}

// Every line the fuzzer logs is byte-identical to the tree encoding of its
// fields, and the tree parser reads it as that tree: log directories
// written before and after the tree-free codec read the same.
TEST(TraceEventTest, LinesMatchJsonTreeEncoding) {
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    repl::RollbackFuzzerOptions options;
    options.seed = seed;
    options.num_steps = 4000;
    options.sync_all_before_writes = true;
    options.avoid_unclean_restarts = true;
    options.avoid_two_leaders = true;
    for (const auto& log : FuzzerLogFiles(options, false)) {
      for (const std::string& line : log) {
        auto event = TraceEvent::FromJsonLine(line);
        ASSERT_TRUE(event.ok()) << line << ": " << event.status().ToString();
        const common::Json tree = TreeOf(*event);
        ASSERT_EQ(event->ToJsonLine(), tree.Dump());
        ASSERT_EQ(line, tree.Dump());
        auto parsed = common::Json::Parse(line);
        ASSERT_TRUE(parsed.ok()) << line;
        ASSERT_TRUE(*parsed == tree) << line;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TraceEvent RandomEvent(common::Rng* rng) {
  auto random_int = [rng]() -> int64_t {
    switch (rng->Below(4)) {
      case 0:
        return rng->Range(-3, 3);
      case 1:
        return std::numeric_limits<int64_t>::min() +
               static_cast<int64_t>(rng->Below(2));
      case 2:
        return std::numeric_limits<int64_t>::max() -
               static_cast<int64_t>(rng->Below(2));
      default:
        return static_cast<int64_t>(rng->Next());
    }
  };
  auto random_string = [rng] {
    // Plain bytes mixed with every kind of escape: quotes, backslashes,
    // named control characters, \u00XX controls, and non-ASCII bytes.
    static const char kAlphabet[] = "aZ0 \"\\/\n\t\r\x01\x1f\x7f\xc3\xa9";
    std::string s;
    const size_t len = rng->Below(12);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng->Below(sizeof(kAlphabet) - 1)]);
    }
    return s;
  };
  TraceEvent e;
  e.timestamp_ms = random_int();
  e.node_id = static_cast<int>(rng->Range(std::numeric_limits<int>::min(),
                                          std::numeric_limits<int>::max()));
  e.action = random_string();
  if (rng->Chance(50)) e.role = random_string();
  if (rng->Chance(50)) e.term = random_int();
  if (rng->Chance(50)) {
    e.commit_point = rng->Chance(30) ? OpTime{}
                                     : OpTime{random_int(), random_int()};
  }
  if (rng->Chance(50)) {
    std::vector<int64_t> terms(rng->Chance(10) ? 2000 : rng->Below(4));
    for (int64_t& t : terms) t = random_int();
    e.oplog_terms = std::move(terms);
  }
  e.oplog_from_stale_snapshot = rng->Chance(50);
  return e;
}

TEST(TraceEventTest, SeededRoundTrip) {
  common::Rng rng(20261019);
  for (int i = 0; i < 2000; ++i) {
    const TraceEvent e = RandomEvent(&rng);
    const std::string line = e.ToJsonLine();
    auto parsed = TraceEvent::FromJsonLine(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    ExpectSameEvent(*parsed, e);
    ASSERT_EQ(line, TreeOf(e).Dump());
  }
}

// Log lines are untrusted input. Every proper prefix and a seeded sample of
// single-byte replacements of a real fuzzer line either fail cleanly or
// decode to an event whose own encoding decodes back to the same bytes.
TEST(TraceEventTest, PrefixesAndByteReplacementsRejectedOrConsistent) {
  repl::RollbackFuzzerOptions options;
  options.seed = 3;
  options.num_steps = 300;
  std::string line;
  for (const auto& log : FuzzerLogFiles(options, false)) {
    for (const std::string& l : log) {
      if (l.find("\"commitPoint\":{") != std::string::npos &&
          l.size() > line.size()) {
        line = l;
      }
    }
  }
  ASSERT_FALSE(line.empty());
  ASSERT_TRUE(TraceEvent::FromJsonLine(line).ok());

  auto expect_consistent = [](const std::string& text) {
    auto parsed = TraceEvent::FromJsonLine(text);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), common::StatusCode::kCorruption);
      return false;
    }
    const std::string encoded = parsed->ToJsonLine();
    auto again = TraceEvent::FromJsonLine(encoded);
    EXPECT_TRUE(again.ok()) << text;
    if (again.ok()) {
      EXPECT_EQ(again->ToJsonLine(), encoded) << text;
    }
    return true;
  };
  for (size_t cut = 0; cut < line.size(); ++cut) {
    EXPECT_FALSE(expect_consistent(line.substr(0, cut))) << cut;
  }
  common::Rng rng(7);
  size_t accepted = 0;
  for (size_t pos = 0; pos < line.size(); ++pos) {
    for (int k = 0; k < 24; ++k) {
      std::string mutated = line;
      mutated[pos] = static_cast<char>(rng.Below(256));
      if (mutated == line) continue;
      if (expect_consistent(mutated)) ++accepted;
    }
  }
  // Digit changes, for one, leave a valid line.
  EXPECT_GT(accepted, 0u);
}

TEST(MergeLogsTest, OrdersByTimestampAcrossNodes) {
  TraceEvent a;
  a.timestamp_ms = 5;
  a.node_id = 0;
  a.action = "A";
  TraceEvent b = a;
  b.timestamp_ms = 3;
  b.node_id = 1;
  b.action = "B";
  TraceEvent c = a;
  c.timestamp_ms = 9;
  c.node_id = 1;
  c.action = "C";

  auto merged = MergeLogs({{a.ToJsonLine()}, {b.ToJsonLine(), c.ToJsonLine()}});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 3u);
  EXPECT_EQ((*merged)[0].action, "B");
  EXPECT_EQ((*merged)[1].action, "A");
  EXPECT_EQ((*merged)[2].action, "C");
}

TEST(MergeLogsTest, RejectsDuplicateTimestamps) {
  TraceEvent a;
  a.timestamp_ms = 5;
  a.node_id = 0;
  a.action = "A";
  TraceEvent b = a;
  b.node_id = 1;
  auto merged = MergeLogs({{a.ToJsonLine()}, {b.ToJsonLine()}});
  EXPECT_FALSE(merged.ok());
}

TEST(MergeLogsTest, NamesNodeAndLineOfABadLine) {
  TraceEvent a;
  a.timestamp_ms = 5;
  a.node_id = 0;
  a.action = "A";
  TraceEvent b = a;
  b.timestamp_ms = 6;
  b.node_id = 1;
  // Empty lines are skipped but counted, so the number is the file's.
  auto merged = MergeLogs(
      {{a.ToJsonLine()}, {b.ToJsonLine(), "", R"({"t":7,"node":1})"}});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), common::StatusCode::kCorruption);
  EXPECT_EQ(merged.status().message().rfind("node 1, line 3: ", 0), 0u)
      << merged.status().message();

  merged = MergeLogs({{a.ToJsonLine(), ""}, {"", b.ToJsonLine()}});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 2u);
}

TEST(TraceLoggerTest, DistinctMonotonicTimestamps) {
  repl::SimClock clock;
  TraceLogger logger(&clock);
  repl::ReplTraceEvent e;
  e.node_id = 0;
  e.action = repl::ReplAction::kClientWrite;
  e.role = "Leader";
  // Log several events without advancing the clock externally: the Figure 2
  // wait loop must still produce strictly increasing timestamps.
  for (int i = 0; i < 5; ++i) logger.OnTraceEvent(e);
  ASSERT_EQ(logger.events_logged(), 5u);
  auto merged = MergeLogs(logger.LogFiles(1));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (size_t i = 1; i < merged->size(); ++i) {
    EXPECT_LT((*merged)[i - 1].timestamp_ms, (*merged)[i].timestamp_ms);
  }
}

TEST(TraceLoggerTest, PartialModeOmitsUnchangedVariables) {
  repl::SimClock clock;
  TraceLoggerOptions options;
  options.partial_state_logging = true;
  TraceLogger logger(&clock, options);

  repl::ReplTraceEvent e;
  e.node_id = 0;
  e.action = repl::ReplAction::kClientWrite;
  e.role = "Leader";
  e.term = 1;
  e.oplog_terms = {1};
  logger.OnTraceEvent(e);  // First event: everything logged.
  e.oplog_terms = {1, 1};
  logger.OnTraceEvent(e);  // Only the oplog changed.

  auto merged = MergeLogs(logger.LogFiles(1));
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 2u);
  EXPECT_TRUE((*merged)[0].role.has_value());
  EXPECT_FALSE((*merged)[1].role.has_value());
  EXPECT_FALSE((*merged)[1].term.has_value());
  ASSERT_TRUE((*merged)[1].oplog_terms.has_value());
  EXPECT_EQ((*merged)[1].oplog_terms->size(), 2u);
}

TEST(EventProcessorTest, Figure3RoleRules) {
  // The exact example from the paper's Figure 3: node 1 is leader in term
  // 1; a trace event from node 2 announcing leadership in term 2 demotes
  // node 1 in the combined state.
  EventProcessorOptions options;
  options.num_nodes = 3;
  EventProcessor processor(options);

  TraceEvent elect1;
  elect1.timestamp_ms = 1;
  elect1.node_id = 0;
  elect1.action = "BecomePrimaryByMagic";
  elect1.role = "Leader";
  elect1.term = 1;
  elect1.commit_point = OpTime{};
  elect1.oplog_terms = std::vector<int64_t>{};

  TraceEvent elect2 = elect1;
  elect2.timestamp_ms = 2;
  elect2.node_id = 1;
  elect2.term = 2;

  ProcessedTrace out = processor.Process({elect1, elect2});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.states.size(), 3u);

  const tlax::State& last = out.states.back();
  EXPECT_EQ(last.var(RaftMongoSpec::kRole).at(0).string_value(), "Follower");
  EXPECT_EQ(last.var(RaftMongoSpec::kRole).at(1).string_value(), "Leader");
  EXPECT_EQ(last.var(RaftMongoSpec::kTerm).at(0).int_value(), 1);
  EXPECT_EQ(last.var(RaftMongoSpec::kTerm).at(1).int_value(), 2);
}

TEST(EventProcessorTest, LeaderToFollowerKeepsOthers) {
  EventProcessorOptions options;
  options.num_nodes = 3;
  EventProcessor processor(options);

  TraceEvent elect;
  elect.timestamp_ms = 1;
  elect.node_id = 0;
  elect.action = "BecomePrimaryByMagic";
  elect.role = "Leader";
  elect.term = 1;
  TraceEvent stepdown;
  stepdown.timestamp_ms = 2;
  stepdown.node_id = 0;
  stepdown.action = "Stepdown";
  stepdown.role = "Follower";
  stepdown.term = 1;

  ProcessedTrace out = processor.Process({elect, stepdown});
  ASSERT_TRUE(out.ok());
  const tlax::State& last = out.states.back();
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(last.var(RaftMongoSpec::kRole).at(n).string_value(),
              "Follower");
  }
}

TEST(EventProcessorTest, RejectsUnknownNode) {
  EventProcessorOptions options;
  options.num_nodes = 2;
  TraceEvent e;
  e.timestamp_ms = 1;
  e.node_id = 7;
  e.action = "ClientWrite";
  ProcessedTrace out = EventProcessor(options).Process({e});
  EXPECT_FALSE(out.ok());
}

// Node 1 initial-syncs and thereafter logs only the trailing window.
std::vector<TraceEvent> ImagePrefixRepairEvents() {
  auto event = [](int64_t ts, int node, const std::string& action,
                  std::vector<int64_t> oplog) {
    TraceEvent e;
    e.timestamp_ms = ts;
    e.node_id = node;
    e.action = action;
    e.role = node == 0 ? "Leader" : "Follower";
    e.term = 1;
    e.commit_point = OpTime{};
    e.oplog_terms = std::move(oplog);
    return e;
  };

  return {
      event(1, 0, "BecomePrimaryByMagic", {}),
      event(2, 0, "ClientWrite", {1}),
      event(3, 0, "ClientWrite", {1, 2}),      // A term-2 write (re-election
      event(4, 0, "ClientWrite", {1, 2, 2}),   // happened off-trace).
      // Node 1 initial-syncs, copying only the last 2 entries. The logged
      // log is a strict suffix (and not a prefix) of node 0's.
      event(5, 1, "AppendOplog", {2, 2}),
      // Later events from node 1 keep omitting the image prefix.
      event(6, 1, "AppendOplog", {2, 2}),
  };
}

TEST(EventProcessorTest, ImagePrefixRepairPersists) {
  // The processor must prepend the inferred prefix to every later event.
  EventProcessorOptions options;
  options.num_nodes = 2;
  ProcessedTrace out =
      EventProcessor(options).Process(ImagePrefixRepairEvents());
  ASSERT_TRUE(out.ok());
  // After the initial-sync event, node 1's processed oplog is the full log.
  EXPECT_EQ(out.states[5].var(RaftMongoSpec::kOplog).at(1).size(), 3u);
  EXPECT_EQ(out.states[6].var(RaftMongoSpec::kOplog).at(1).size(), 3u);
}

// Digest of a processed trace: every state's fingerprint and action.
uint64_t ProcessedDigest(const ProcessedTrace& processed) {
  uint64_t h = common::HashCombine(processed.states.size(),
                                   processed.actions.size());
  for (size_t i = 0; i < processed.states.size(); ++i) {
    h = common::HashCombine(h, processed.states[i].fingerprint());
    h = common::HashCombine(h, common::HashString(processed.actions[i]));
  }
  return h;
}

// Pins the post-processed states of fuzzer traces (with rollbacks, initial
// syncs and so the image-prefix repair) under full and partial-state
// logging, and of ImagePrefixRepairPersists's input. Any change to what
// the processor builds for an event moves the digest.
TEST(EventProcessorTest, ProcessedStatesArePinned) {
  uint64_t digest = 0;
  size_t states = 0;
  for (bool partial : {false, true}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      repl::RollbackFuzzerOptions options;
      options.seed = seed;
      options.num_steps = 1000;
      auto merged = MergeLogs(FuzzerLogFiles(options, partial));
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EventProcessorOptions processor_options;
      processor_options.num_nodes = options.config.num_nodes;
      ProcessedTrace processed =
          EventProcessor(processor_options).Process(*merged);
      ASSERT_TRUE(processed.ok()) << processed.status.ToString();
      states += processed.states.size();
      digest = common::HashCombine(digest, ProcessedDigest(processed));
    }
  }
  EventProcessorOptions options;
  options.num_nodes = 2;
  ProcessedTrace repair =
      EventProcessor(options).Process(ImagePrefixRepairEvents());
  ASSERT_TRUE(repair.ok());
  digest = common::HashCombine(digest, ProcessedDigest(repair));
  EXPECT_EQ(states, 1546u);
  EXPECT_EQ(digest, 6652939075957864153u);
}

RaftMongoSpec UnboundedSpec(int num_nodes) {
  RaftMongoConfig config;
  config.variant = RaftMongoVariant::kDetailed;
  config.num_nodes = num_nodes;
  config.max_term = 1'000'000;
  config.max_oplog_len = 1'000'000;
  return RaftMongoSpec(config);
}

MbtcReport RunScenarioThroughPipeline(const repl::Scenario& scenario,
                                      const RaftMongoSpec& spec) {
  repl::ReplicaSet rs(scenario.config);
  TraceLogger logger(&rs.clock());
  rs.AttachTraceSink(&logger);
  auto run_status = scenario.run(rs);
  EXPECT_TRUE(run_status.ok()) << scenario.name << ": "
                               << run_status.ToString();
  MbtcPipelineOptions options;
  options.checker.allow_stuttering = true;
  MbtcPipeline pipeline(&spec, options);
  return pipeline.Run(logger.LogFiles(rs.num_nodes()));
}

TEST(MbtcPipelineTest, ConformingScenariosPass) {
  for (const repl::Scenario& scenario : repl::BaseScenarios()) {
    if (scenario.uses_arbiters || scenario.exhibits_two_leaders) continue;
    if (scenario.name == "initial_sync_quorum_bug") continue;
    RaftMongoSpec spec = UnboundedSpec(scenario.config.num_nodes);
    MbtcReport report = RunScenarioThroughPipeline(scenario, spec);
    EXPECT_TRUE(report.passed())
        << scenario.name << ": step " << report.check.failed_step << " — "
        << report.check.status.ToString();
    EXPECT_GT(report.num_events, 0u);
    EXPECT_EQ(report.num_states, report.num_events + 1);
    EXPECT_NE(report.trace_module.find("MODULE Trace"), std::string::npos);
  }
}

TEST(MbtcPipelineTest, QuorumBugScenarioViolatesSpec) {
  // The paper's central §4.2.2 result: the initial-sync quorum bug makes
  // the implementation's trace violate RaftMongo — the leader's commit
  // point regresses after the non-durable "committed" write is lost.
  const auto scenarios = repl::BaseScenarios();
  auto it = std::find_if(scenarios.begin(), scenarios.end(),
                         [](const repl::Scenario& s) {
                           return s.name == "initial_sync_quorum_bug";
                         });
  ASSERT_NE(it, scenarios.end());
  RaftMongoSpec spec = UnboundedSpec(it->config.num_nodes);
  MbtcReport report = RunScenarioThroughPipeline(*it, spec);
  EXPECT_FALSE(report.check.ok());
  EXPECT_GT(report.check.failed_step, 0u);
}

TEST(MbtcPipelineTest, QuorumBugFixedVsBuggyDurability) {
  // With the fixed quorum rule the same scenario never declares the
  // non-durable write committed, so nothing is lost. (Its trace still
  // cannot be checked — the initial-sync wipe itself is unexplainable by
  // the spec, which is why the paper chose avoidance, solution 2.)
  auto scenarios = repl::BaseScenarios();
  auto it = std::find_if(scenarios.begin(), scenarios.end(),
                         [](const repl::Scenario& s) {
                           return s.name == "initial_sync_quorum_bug";
                         });
  ASSERT_NE(it, scenarios.end());

  repl::Scenario buggy = *it;
  repl::ReplicaSet rs_buggy(buggy.config);
  ASSERT_TRUE(buggy.run(rs_buggy).ok());
  EXPECT_FALSE(rs_buggy.CommittedWritesDurable());

  repl::Scenario fixed = *it;
  fixed.config.count_initial_sync_in_quorum = false;
  repl::ReplicaSet rs_fixed(fixed.config);
  ASSERT_TRUE(fixed.run(rs_fixed).ok());
  EXPECT_TRUE(rs_fixed.CommittedWritesDurable());
}

TEST(MbtcPipelineTest, TwoLeadersScenarioViolatesSpec) {
  // The at-most-one-leader simplification rejects two-leader traces
  // (§4.2.2 "Two leaders"); the paper avoided such tests (solution 2).
  const auto scenarios = repl::BaseScenarios();
  auto it = std::find_if(scenarios.begin(), scenarios.end(),
                         [](const repl::Scenario& s) {
                           return s.exhibits_two_leaders;
                         });
  ASSERT_NE(it, scenarios.end());
  RaftMongoSpec spec = UnboundedSpec(it->config.num_nodes);
  MbtcReport report = RunScenarioThroughPipeline(*it, spec);
  EXPECT_FALSE(report.check.ok());
}

TEST(MbtcPipelineTest, ArbiterScenarioCrashesUnderTracing) {
  const auto scenarios = repl::BaseScenarios();
  auto it = std::find_if(scenarios.begin(), scenarios.end(),
                         [](const repl::Scenario& s) {
                           return s.uses_arbiters;
                         });
  ASSERT_NE(it, scenarios.end());

  // Without tracing the scenario passes…
  repl::ScenarioOutcome plain = repl::RunScenario(*it, nullptr);
  EXPECT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_FALSE(plain.traced_arbiter_crash);

  // …with tracing the arbiter crashes (§4.2.2 "Arbiters").
  repl::SimClock clock;
  TraceLogger logger(&clock);
  repl::ScenarioOutcome traced = repl::RunScenario(*it, &logger);
  EXPECT_TRUE(traced.traced_arbiter_crash);
  EXPECT_FALSE(traced.status.ok());
}

TEST(MbtcPipelineTest, FuzzerTraceChecksWhenBugAvoided) {
  // rollback_fuzzer with the paper's solution-2 modification: all
  // followers fully synced before writes, no mid-run initial syncs.
  repl::RollbackFuzzerOptions options;
  options.seed = 7;
  options.num_steps = 600;
  options.sync_all_before_writes = true;
  options.avoid_unclean_restarts = true;
  options.avoid_two_leaders = true;
  options.config.count_initial_sync_in_quorum = true;  // Bug present but
                                                       // never triggered.
  repl::ReplicaSet rs(options.config);
  TraceLogger logger(&rs.clock());
  rs.AttachTraceSink(&logger);
  repl::RollbackFuzzer fuzzer(options);
  repl::RollbackFuzzerReport fuzz_report = fuzzer.Run(&rs);
  EXPECT_TRUE(fuzz_report.committed_writes_durable);

  RaftMongoSpec spec = UnboundedSpec(options.config.num_nodes);
  MbtcPipelineOptions popts;
  popts.checker.allow_stuttering = true;
  MbtcPipeline pipeline(&spec, popts);
  MbtcReport report = pipeline.Run(logger.LogFiles(rs.num_nodes()));
  EXPECT_TRUE(report.passed())
      << "step " << report.check.failed_step << " of " << report.num_events
      << " — " << report.check.status.ToString();
  EXPECT_GT(report.num_events, 50u);
}

// Pins the trace check of one fuzzer trace: how many spec states the
// search explores and which actions explain each step (digested in step
// order). Any change to action successors, their order, or the search
// moves one of these figures.
TEST(MbtcPipelineTest, FuzzerTraceSearchIsPinned) {
  repl::RollbackFuzzerOptions options;
  options.seed = 1;
  options.num_steps = 1000;
  options.sync_all_before_writes = true;
  options.avoid_unclean_restarts = true;
  options.avoid_two_leaders = true;
  repl::ReplicaSet rs(options.config);
  TraceLogger logger(&rs.clock());
  rs.AttachTraceSink(&logger);
  repl::RollbackFuzzer(options).Run(&rs);

  RaftMongoSpec spec = UnboundedSpec(options.config.num_nodes);
  MbtcPipelineOptions popts;
  popts.checker.allow_stuttering = true;
  MbtcReport report =
      MbtcPipeline(&spec, popts).Run(logger.LogFiles(rs.num_nodes()));
  ASSERT_TRUE(report.passed()) << report.check.status.ToString();
  std::string actions;
  for (const std::vector<std::string>& step : report.check.step_actions) {
    for (const std::string& name : step) actions += name + "|";
    actions += ";";
  }
  EXPECT_EQ(report.check.states_explored, 30606u);
  EXPECT_EQ(report.check.step_actions.size(), 357u);
  EXPECT_EQ(common::HashString(actions), 11304585133480058267u);
}

// A trace check frees every value it interns: the intern table holds as
// many reps, and as many bytes, after it as before, in either entry point.
// The trace's own states are interned before the check and survive it, so
// a second check of the same trace gives the same answer.
TEST(TraceCheckTest, CheckLeavesNoInternedReps) {
  repl::RollbackFuzzerOptions options;
  options.seed = 3;
  options.num_steps = 600;
  options.sync_all_before_writes = true;
  options.avoid_unclean_restarts = true;
  options.avoid_two_leaders = true;
  auto merged = MergeLogs(FuzzerLogFiles(options, false));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EventProcessorOptions processor_options;
  processor_options.num_nodes = options.config.num_nodes;
  const ProcessedTrace processed =
      EventProcessor(processor_options).Process(*merged);
  ASSERT_TRUE(processed.ok()) << processed.status.ToString();
  const std::vector<tlax::TraceState> states =
      MbtcPipeline::ToTraceStates(processed.states);
  const RaftMongoSpec spec = UnboundedSpec(options.config.num_nodes);
  tlax::TraceCheckOptions check_options;
  check_options.allow_stuttering = true;
  const tlax::TraceChecker checker(check_options);

  std::vector<tlax::TraceCheckResult> results;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    const tlax::Value::InternStats before = tlax::Value::GetInternStats();
    results.push_back(checker.Check(spec, states));
    const tlax::Value::InternStats after = tlax::Value::GetInternStats();
    ASSERT_TRUE(results.back().ok()) << results.back().status.ToString();
    EXPECT_GT(after.misses, before.misses);  // The search built new reps...
    EXPECT_EQ(after.live, before.live);      // ...and freed every one.
    EXPECT_EQ(after.bytes, before.bytes);
  }
  EXPECT_GT(results[0].states_explored, states.size());
  EXPECT_EQ(results[1].states_explored, results[0].states_explored);
  EXPECT_EQ(results[1].step_actions, results[0].step_actions);

  // CheckModule parses the module inside its scope too.
  const std::string module =
      tlax::TraceModuleText("Trace", spec.variables(), states);
  const tlax::Value::InternStats before = tlax::Value::GetInternStats();
  const tlax::TraceCheckResult parsed = checker.CheckModule(spec, module);
  const tlax::Value::InternStats after = tlax::Value::GetInternStats();
  ASSERT_TRUE(parsed.ok()) << parsed.status.ToString();
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(parsed.states_explored, results[0].states_explored);
  EXPECT_EQ(parsed.step_actions, results[0].step_actions);
}

TEST(RollbackFuzzerTest, DeterministicPerSeed) {
  repl::RollbackFuzzerOptions options;
  options.seed = 42;
  options.num_steps = 200;
  repl::RollbackFuzzerReport a = repl::RollbackFuzzer(options).Run();
  repl::RollbackFuzzerReport b = repl::RollbackFuzzer(options).Run();
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.elections, b.elections);
}

TEST(RollbackFuzzerTest, ProducesRollbacks) {
  // Across a few seeds the fuzzer must actually exercise rollback.
  int64_t total_rollbacks = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    repl::RollbackFuzzerOptions options;
    options.seed = seed;
    options.num_steps = 400;
    options.sync_all_before_writes = true;
    repl::RollbackFuzzerReport report = repl::RollbackFuzzer(options).Run();
    total_rollbacks += report.rollbacks;
    EXPECT_TRUE(report.committed_writes_durable) << "seed " << seed;
  }
  EXPECT_GT(total_rollbacks, 0);
}

TEST(ScenarioLibraryTest, AllScenariosPassWithoutTracing) {
  int count = 0;
  for (const repl::Scenario& scenario : repl::AllScenarios()) {
    repl::ScenarioOutcome outcome = repl::RunScenario(scenario, nullptr);
    EXPECT_TRUE(outcome.status.ok())
        << scenario.name << ": " << outcome.status.ToString();
    ++count;
  }
  // The library is a few hundred distinct parameterized tests.
  EXPECT_GT(count, 350);
}

// One end-to-end run populates all three instrumented subsystems' metric
// families — the same guarantee `mbtc_check --scenario --metrics-out`
// gives on the command line.
TEST(MbtcPipelineTest, PublishesMetricFamiliesAcrossSubsystems) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();

  auto scenarios = repl::BaseScenarios();
  auto it = std::find_if(scenarios.begin(), scenarios.end(),
                         [](const repl::Scenario& s) {
                           return s.name == "elect_and_write";
                         });
  ASSERT_NE(it, scenarios.end());
  RaftMongoSpec spec = UnboundedSpec(it->config.num_nodes);
  MbtcReport report = RunScenarioThroughPipeline(*it, spec);
  ASSERT_TRUE(report.passed());

  obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.HasFamily("checker."));  // Trace checker metrics.
  EXPECT_TRUE(snap.HasFamily("repl."));     // Replica-set + logger metrics.
  EXPECT_TRUE(snap.HasFamily("mbtc."));     // Pipeline metrics.

  EXPECT_EQ(snap.Find("mbtc.runs.completed")->value, 1.0);
  EXPECT_EQ(snap.Find("mbtc.events.ingested")->value,
            static_cast<double>(report.num_events));
  EXPECT_EQ(snap.Find("mbtc.states.mapped")->value,
            static_cast<double>(report.num_states));
  EXPECT_GE(snap.Find("repl.events.logged")->value,
            static_cast<double>(report.num_events));
  EXPECT_TRUE(snap.HasFamily("repl.node0.events.logged"));
  EXPECT_GE(snap.Find("checker.trace.steps.checked")->value, 1.0);

  // Per-phase latency histograms observed exactly one run each.
  for (const char* phase : {"mbtc.phase.parse.ms", "mbtc.phase.map.ms",
                            "mbtc.phase.check.ms"}) {
    const obs::MetricSnapshot* h = snap.Find(phase);
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_EQ(h->kind, obs::MetricKind::kHistogram);
    EXPECT_EQ(h->count, 1u) << phase;
  }
  registry.Reset();
}

}  // namespace
}  // namespace xmodel::trace
