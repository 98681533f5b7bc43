// An oracle for the fingerprint-based seen set: a plain breadth-first
// search that keeps every full state in an unordered_set, so two distinct
// states can never merge, must find exactly the distinct and generated
// counts and the diameter that ModelChecker reports at 1 and 4 workers.
// A 64-bit fingerprint collision would lose a state (and its successors)
// in the checker but not here.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "specs/array_ot_spec.h"
#include "specs/locking_spec.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"
#include "tlax/spec.h"
#include "tlax/state.h"

namespace xmodel {
namespace {

struct Counts {
  uint64_t distinct = 0;
  uint64_t generated = 0;
  int64_t diameter = 0;
};

// The checker's counting rules over full states: every initial state and
// every successor counts as generated, only states within the constraint
// are expanded, and the diameter is the depth of the deepest expanded
// level. None of the specs below declares a symmetry, so states need no
// canonicalization.
Counts FullStateBfs(const tlax::Spec& spec) {
  std::unordered_set<tlax::State, tlax::StateHash> seen;
  std::vector<tlax::State> level;
  Counts counts;
  for (tlax::State& init : spec.InitialStates()) {
    ++counts.generated;
    if (seen.insert(init).second && spec.WithinConstraint(init)) {
      level.push_back(std::move(init));
    }
  }
  for (int64_t depth = 0; !level.empty(); ++depth) {
    counts.diameter = depth;
    std::vector<tlax::State> next;
    for (const tlax::State& state : level) {
      for (tlax::State& succ : spec.Successors(state)) {
        ++counts.generated;
        if (seen.insert(succ).second && spec.WithinConstraint(succ)) {
          next.push_back(std::move(succ));
        }
      }
    }
    level = std::move(next);
  }
  counts.distinct = seen.size();
  return counts;
}

void ExpectCountsMatch(const tlax::Spec& spec) {
  const Counts oracle = FullStateBfs(spec);
  for (int workers : {1, 4}) {
    SCOPED_TRACE(testing::Message() << spec.name() << " with " << workers
                                    << " workers");
    tlax::CheckerOptions options;
    options.num_workers = workers;
    const tlax::CheckResult result = tlax::ModelChecker(options).Check(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.violation.has_value());
    EXPECT_EQ(result.distinct_states, oracle.distinct);
    EXPECT_EQ(result.generated_states, oracle.generated);
    EXPECT_EQ(result.diameter, oracle.diameter);
  }
}

TEST(FullStateBfsTest, MatchesEngineCounts) {
  specs::RaftMongoConfig raft;
  raft.max_term = 2;
  raft.max_oplog_len = 2;
  ExpectCountsMatch(specs::RaftMongoSpec(raft));

  ExpectCountsMatch(specs::LockingSpec(specs::LockingConfig{}));

  specs::ArrayOtConfig ot;
  ot.num_clients = 2;
  ot.initial_array_len = 2;
  ExpectCountsMatch(specs::ArrayOtSpec(ot));
}

}  // namespace
}  // namespace xmodel
