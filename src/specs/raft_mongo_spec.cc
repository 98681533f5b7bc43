#include "specs/raft_mongo_spec.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace xmodel::specs {

using tlax::Action;
using tlax::Footprint;
using tlax::Invariant;
using tlax::State;
using tlax::Value;

namespace {

// -- Small accessors over the 4-tuple state layout ---------------------------

int64_t TermOf(const State& s, int n) {
  return s.var(RaftMongoSpec::kTerm).at(n).int_value();
}

int64_t VotedTermOf(const State& s, int n) {
  return s.var(RaftMongoSpec::kVotedTerm).at(n).int_value();
}

bool IsLeader(const State& s, int n) {
  return s.var(RaftMongoSpec::kRole).at(n).string_value() == "Leader";
}

const Value& OplogOf(const State& s, int n) {
  return s.var(RaftMongoSpec::kOplog).at(n);
}

const Value& CommitPointOf(const State& s, int n) {
  return s.var(RaftMongoSpec::kCommitPoint).at(n);
}

// A commit point or last-applied position as a (term, index) pair;
// (0, 0) is NULL / empty.
struct Point {
  int64_t term = 0;
  int64_t index = 0;
  friend bool operator<(const Point& a, const Point& b) {
    if (a.term != b.term) return a.term < b.term;
    return a.index < b.index;
  }
  friend bool operator==(const Point& a, const Point& b) {
    return a.term == b.term && a.index == b.index;
  }
};

Point PointFromValue(const Value& v) {
  if (v.is_nil()) return Point{};
  return Point{v.FieldOrDie("term").int_value(),
               v.FieldOrDie("index").int_value()};
}

Point LastApplied(const State& s, int n) {
  const Value& log = OplogOf(s, n);
  if (log.size() == 0) return Point{};
  return Point{log.at(log.size() - 1).int_value(),
               static_cast<int64_t>(log.size())};
}

// Length of the longest common prefix of two oplogs (as term sequences).
int64_t CommonPrefixLen(const Value& a, const Value& b) {
  size_t limit = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < limit && a.at(i) == b.at(i)) ++i;
  return static_cast<int64_t>(i);
}

bool LogContainsPoint(const State& s, int n, const Point& p) {
  const Value& log = OplogOf(s, n);
  return p.index >= 1 && p.index <= static_cast<int64_t>(log.size()) &&
         log.at(p.index - 1).int_value() == p.term;
}

// Per node, the majority subsets of {0..n-1} that contain it, as bitmasks.
std::vector<std::vector<uint32_t>> MajoritiesByMember(int num_nodes) {
  std::vector<std::vector<uint32_t>> out(num_nodes);
  const int majority = num_nodes / 2 + 1;
  for (uint32_t mask = 0; mask < (1u << num_nodes); ++mask) {
    if (__builtin_popcount(mask) < majority) continue;
    for (int n = 0; n < num_nodes; ++n) {
      if (mask & (1u << n)) out[n].push_back(mask);
    }
  }
  return out;
}

State WithNodeValue(const State& s, int var, int node, Value v) {
  return s.With(var, s.var(var).WithIndex1(node + 1, std::move(v)));
}

}  // namespace

Value RaftMongoSpec::CommitPointValue(int64_t term, int64_t index) {
  if (term == 0 && index == 0) return Value::Nil();
  return Value::Record({{"term", Value::Int(term)},
                        {"index", Value::Int(index)}});
}

State RaftMongoSpec::MakeState(
    const std::vector<std::string>& roles,
    const std::vector<int64_t>& terms,
    const std::vector<std::pair<int64_t, int64_t>>& commit_points,
    const std::vector<std::vector<int64_t>>& oplogs) {
  assert(roles.size() == terms.size() &&
         roles.size() == commit_points.size() &&
         roles.size() == oplogs.size());
  std::vector<Value> role_vals, term_vals, cp_vals, oplog_vals;
  for (size_t i = 0; i < roles.size(); ++i) {
    role_vals.push_back(Value::Str(roles[i]));
    term_vals.push_back(Value::Int(terms[i]));
    cp_vals.push_back(
        CommitPointValue(commit_points[i].first, commit_points[i].second));
    std::vector<Value> entries;
    for (int64_t t : oplogs[i]) entries.push_back(Value::Int(t));
    oplog_vals.push_back(Value::Seq(std::move(entries)));
  }
  std::vector<Value> voted_vals(roles.size(), Value::Int(0));
  return State({Value::Seq(std::move(role_vals)),
                Value::Seq(std::move(term_vals)),
                Value::Seq(std::move(cp_vals)),
                Value::Seq(std::move(oplog_vals)),
                Value::Seq(std::move(voted_vals))});
}

tlax::TraceState RaftMongoSpec::ToObservableTraceState(const State& state) {
  tlax::TraceState t;
  for (int v = 0; v < kNumObservableVars; ++v) {
    t.vars.emplace_back(state.var(v));
  }
  t.vars.emplace_back(std::nullopt);  // votedTerm is never logged.
  return t;
}

RaftMongoSpec::RaftMongoSpec(const RaftMongoConfig& config)
    : config_(config),
      variables_{"role", "term", "commitPoint", "oplog", "votedTerm"} {
  BuildActions();
  BuildInvariants();
}

std::string RaftMongoSpec::name() const {
  return config_.variant == RaftMongoVariant::kAbstract
             ? "RaftMongoAbstract"
             : "RaftMongoDetailed";
}

std::vector<State> RaftMongoSpec::InitialStates() const {
  std::vector<std::string> roles(config_.num_nodes, "Follower");
  std::vector<int64_t> terms(config_.num_nodes, 0);
  std::vector<std::pair<int64_t, int64_t>> cps(config_.num_nodes, {0, 0});
  std::vector<std::vector<int64_t>> oplogs(config_.num_nodes);
  return {MakeState(roles, terms, cps, oplogs)};
}

bool RaftMongoSpec::WithinConstraint(const State& state) const {
  for (int n = 0; n < config_.num_nodes; ++n) {
    if (TermOf(state, n) > config_.max_term) return false;
    if (VotedTermOf(state, n) > config_.max_term) return false;
    if (static_cast<int64_t>(OplogOf(state, n).size()) >
        config_.max_oplog_len) {
      return false;
    }
  }
  return true;
}

std::vector<tlax::DomainDecl> RaftMongoSpec::DeclaredDomains() const {
  const double n = config_.num_nodes;
  const double t = static_cast<double>(config_.max_term);
  const double l = static_cast<double>(config_.max_oplog_len);
  // Per-node option counts, raised to the node count (every variable is a
  // per-node tuple). The bounds cover the in-constraint region:
  // WithinConstraint caps term, votedTerm, and oplog length, and oplog
  // entries carry the term of the leader that wrote them (always >= 1).
  // A commit point is NULL or [term in 1..T, index in 1..L].
  double oplogs_per_node = 0;
  for (int64_t len = 0; len <= config_.max_oplog_len; ++len) {
    oplogs_per_node += std::pow(t, static_cast<double>(len));
  }
  return {
      {"role", std::pow(2.0, n)},
      {"term", std::pow(t + 1, n)},
      {"commitPoint", std::pow(1 + t * l, n)},
      {"oplog", std::pow(oplogs_per_node, n)},
      {"votedTerm", std::pow(t + 1, n)},
  };
}

tlax::State RaftMongoSpec::Canonicalize(const tlax::State& state) const {
  if (!config_.use_symmetry) return state;
  // Node ids are interchangeable and no value holds one, so the
  // representative is the least relabeling under the var-by-var order: the
  // one with the node columns sorted. Swapping two adjacent out-of-order
  // columns makes the state strictly smaller, and columns with equal keys
  // are identical, so ties need no search.
  const int num_nodes = config_.num_nodes;
  auto column_less = [&state](int a, int b) {
    for (const Value& tuple : state.vars()) {
      const int cmp = Value::Compare(tuple.at(a), tuple.at(b));
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  bool sorted = true;
  for (int i = 1; i < num_nodes && sorted; ++i) sorted = !column_less(i, i - 1);
  if (sorted) return state;  // Already canonical: build nothing.
  std::vector<int> order(num_nodes);
  for (int i = 0; i < num_nodes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), column_less);
  std::vector<Value> vars;
  vars.reserve(state.num_vars());
  for (const Value& tuple : state.vars()) {
    std::vector<Value> entries;
    entries.reserve(num_nodes);
    for (int node : order) entries.push_back(tuple.at(node));
    vars.push_back(Value::Seq(std::move(entries)));
  }
  return State(std::move(vars));
}

void RaftMongoSpec::BuildActions() {
  const int num_nodes = config_.num_nodes;
  const bool abstract = config_.variant == RaftMongoVariant::kAbstract;

  // ClientWrite(n): a leader executes a write, appending an entry in its
  // current term.
  actions_.push_back(Action{
      "ClientWrite", [num_nodes](const State& s, std::vector<State>* out) {
        for (int n = 0; n < num_nodes; ++n) {
          if (!IsLeader(s, n)) continue;
          Value log = OplogOf(s, n).Append(Value::Int(TermOf(s, n)));
          out->push_back(
              WithNodeValue(s, kOplog, n, std::move(log)));
        }
      },
      Footprint{{"role", "term", "oplog"}, {"oplog"}}});

  // AppendOplog(n, m): n pulls entries from any node m whose log strictly
  // extends n's (the Server's pull-based replication; any batch size).
  actions_.push_back(Action{
      "AppendOplog", [num_nodes](const State& s, std::vector<State>* out) {
        std::vector<Value> pulled;
        for (int n = 0; n < num_nodes; ++n) {
          const Value& mine = OplogOf(s, n);
          for (int m = 0; m < num_nodes; ++m) {
            if (m == n) continue;
            const Value& theirs = OplogOf(s, m);
            if (theirs.size() <= mine.size()) continue;
            if (CommonPrefixLen(mine, theirs) !=
                static_cast<int64_t>(mine.size())) {
              continue;  // Divergent: rollback handles it.
            }
            // Pull any number of consecutive entries: every prefix of
            // theirs longer than mine, shortest first. One walk down the
            // prefix links makes each O(1), where SubSeq would copy and
            // hash the entries once per batch size.
            pulled.assign(1, theirs);
            while (pulled.back().size() > mine.size() + 1) {
              pulled.push_back(pulled.back().Prefix());
            }
            for (auto it = pulled.rbegin(); it != pulled.rend(); ++it) {
              out->push_back(WithNodeValue(s, kOplog, n, *it));
            }
          }
        }
      },
      Footprint{{"oplog"}, {"oplog"}}});

  // RollbackOplog(n, m): n's log diverges from m's and m's last entry is
  // newer — n truncates to the common prefix. The commit point does NOT
  // move: rolling back a committed entry violates the invariant.
  actions_.push_back(Action{
      "RollbackOplog", [num_nodes](const State& s, std::vector<State>* out) {
        for (int n = 0; n < num_nodes; ++n) {
          const Value& mine = OplogOf(s, n);
          if (mine.size() == 0) continue;
          for (int m = 0; m < num_nodes; ++m) {
            if (m == n) continue;
            const Value& theirs = OplogOf(s, m);
            if (theirs.size() == 0) continue;
            int64_t common = CommonPrefixLen(mine, theirs);
            if (common == static_cast<int64_t>(mine.size())) continue;
            // m must be strictly newer (term-major last-applied compare).
            if (!(LastApplied(s, n) < LastApplied(s, m))) continue;
            out->push_back(
                WithNodeValue(s, kOplog, n, mine.SubSeq(1, common)));
          }
        }
      },
      Footprint{{"oplog"}, {"oplog"}}});

  // BecomePrimaryByMagic(n): an instantaneous election. Some majority of
  // nodes (including n) with logs no newer than n's and terms no newer than
  // the new term elects n; every other node instantly becomes a Follower
  // (the spec's at-most-one-leader simplification).
  actions_.push_back(Action{
      "BecomePrimaryByMagic",
      [num_nodes, abstract, majorities = MajoritiesByMember(num_nodes)](
          const State& s, std::vector<State>* out) {
        for (int n = 0; n < num_nodes; ++n) {
          // The candidate runs in its current term plus one. A voter must
          // never have voted in (or learned) that term, and its log must
          // be no newer than the candidate's. The vote is durable: every
          // member of the electing majority records the new term in
          // votedTerm, which is what makes two same-term elections
          // impossible. Voters' visible `term` values are NOT updated
          // here — they learn the term afterwards through ordinary gossip
          // (separate UpdateTermThroughHeartbeat transitions), exactly as
          // the instrumented implementation logs it.
          int64_t new_term = TermOf(s, n) + 1;
          // A candidate that already voted in a newer term than its own
          // cannot run until gossip catches its term up.
          if (VotedTermOf(s, n) >= new_term) continue;
          for (uint32_t mask : majorities[n]) {
            bool eligible = true;
            for (int q = 0; q < num_nodes; ++q) {
              if (!(mask & (1u << q)) || q == n) continue;
              if (TermOf(s, q) >= new_term ||
                  VotedTermOf(s, q) >= new_term ||
                  LastApplied(s, n) < LastApplied(s, q)) {
                eligible = false;
                break;
              }
            }
            if (!eligible) continue;

            std::vector<Value> roles, terms, voted;
            roles.reserve(num_nodes);
            terms.reserve(num_nodes);
            voted.reserve(num_nodes);
            for (int q = 0; q < num_nodes; ++q) {
              roles.push_back(Value::Str(q == n ? "Leader" : "Follower"));
              if (abstract) {
                // Original spec: the term is a single global number that
                // every node knows immediately.
                terms.push_back(Value::Int(new_term));
                voted.push_back(Value::Int(new_term));
              } else {
                terms.push_back(Value::Int(q == n ? new_term : TermOf(s, q)));
                bool voter = (mask & (1u << q)) != 0;
                voted.push_back(Value::Int(
                    voter ? new_term : VotedTermOf(s, q)));
              }
            }
            State next = s.With(kRole, Value::Seq(std::move(roles)));
            next = next.With(kTerm, Value::Seq(std::move(terms)));
            next = next.With(kVotedTerm, Value::Seq(std::move(voted)));
            out->push_back(std::move(next));
            if (abstract) break;  // All majorities yield the same state.
          }
        }
      },
      Footprint{{"term", "votedTerm", "oplog"},
                {"role", "term", "votedTerm"}}});

  // Stepdown(n): a leader voluntarily becomes a follower.
  actions_.push_back(Action{
      "Stepdown", [num_nodes](const State& s, std::vector<State>* out) {
        for (int n = 0; n < num_nodes; ++n) {
          if (!IsLeader(s, n)) continue;
          out->push_back(
              WithNodeValue(s, kRole, n, Value::Str("Follower")));
        }
      },
      Footprint{{"role"}, {"role"}}});

  // AdvanceCommitPoint(n): the leader advances its commit point to any
  // entry of its own term that a majority has replicated.
  actions_.push_back(Action{
      "AdvanceCommitPoint",
      [num_nodes](const State& s, std::vector<State>* out) {
        for (int n = 0; n < num_nodes; ++n) {
          if (!IsLeader(s, n)) continue;
          const Value& mine = OplogOf(s, n);
          Point current = PointFromValue(CommitPointOf(s, n));
          for (int64_t i = 1; i <= static_cast<int64_t>(mine.size()); ++i) {
            Point p{mine.at(i - 1).int_value(), i};
            if (!(current < p)) continue;
            if (p.term != TermOf(s, n)) continue;  // Raft safety rule.
            // A majority must hold the entry.
            int holders = 0;
            for (int q = 0; q < num_nodes; ++q) {
              if (LogContainsPoint(s, q, p)) ++holders;
            }
            if (holders * 2 <= num_nodes) continue;
            out->push_back(WithNodeValue(
                s, kCommitPoint, n,
                RaftMongoSpec::CommitPointValue(p.term, p.index)));
          }
        }
      },
      Footprint{{"role", "term", "commitPoint", "oplog"},
                {"commitPoint"}}});

  if (!abstract) {
    // UpdateTermThroughHeartbeat(n, m): n learns a newer term from any
    // node m; a leader learning a newer term steps down in the same
    // transition (as the implementation does).
    actions_.push_back(Action{
        "UpdateTermThroughHeartbeat",
        [num_nodes](const State& s, std::vector<State>* out) {
          for (int n = 0; n < num_nodes; ++n) {
            for (int m = 0; m < num_nodes; ++m) {
              if (m == n || TermOf(s, m) <= TermOf(s, n)) continue;
              State next =
                  WithNodeValue(s, kTerm, n, Value::Int(TermOf(s, m)));
              // Having seen the term, the node will refuse votes in it.
              if (TermOf(s, m) > VotedTermOf(s, n)) {
                next = WithNodeValue(next, kVotedTerm, n,
                                     Value::Int(TermOf(s, m)));
              }
              if (IsLeader(s, n)) {
                next = WithNodeValue(next, kRole, n, Value::Str("Follower"));
              }
              out->push_back(std::move(next));
            }
          }
        },
        Footprint{{"role", "term", "votedTerm"},
                  {"role", "term", "votedTerm"}}});
  }

  // LearnCommitPoint…: n learns the commit point from any node m.
  if (abstract) {
    // Original spec: no term check — adopt any newer commit point.
    actions_.push_back(Action{
        "LearnCommitPoint",
        [num_nodes](const State& s, std::vector<State>* out) {
          for (int n = 0; n < num_nodes; ++n) {
            Point mine = PointFromValue(CommitPointOf(s, n));
            for (int m = 0; m < num_nodes; ++m) {
              if (m == n) continue;
              Point theirs = PointFromValue(CommitPointOf(s, m));
              if (!(mine < theirs)) continue;
              out->push_back(WithNodeValue(
                  s, kCommitPoint, n,
                  RaftMongoSpec::CommitPointValue(theirs.term,
                                                  theirs.index)));
            }
          }
        },
        Footprint{{"commitPoint"}, {"commitPoint"}}});
  } else {
    actions_.push_back(Action{
        "LearnCommitPointWithTermCheck",
        [num_nodes](const State& s, std::vector<State>* out) {
          for (int n = 0; n < num_nodes; ++n) {
            Point mine = PointFromValue(CommitPointOf(s, n));
            for (int m = 0; m < num_nodes; ++m) {
              if (m == n) continue;
              Point theirs = PointFromValue(CommitPointOf(s, m));
              if (!(mine < theirs)) continue;
              // Only adopt a commit point naming an entry in our own log.
              if (!LogContainsPoint(s, n, theirs)) continue;
              out->push_back(WithNodeValue(
                  s, kCommitPoint, n,
                  RaftMongoSpec::CommitPointValue(theirs.term,
                                                  theirs.index)));
            }
          }
        },
        Footprint{{"commitPoint", "oplog"}, {"commitPoint"}}});

    actions_.push_back(Action{
        "LearnCommitPointFromSyncSourceNeverBeyondLastApplied",
        [num_nodes](const State& s, std::vector<State>* out) {
          for (int n = 0; n < num_nodes; ++n) {
            Point mine = PointFromValue(CommitPointOf(s, n));
            Point last = LastApplied(s, n);
            for (int m = 0; m < num_nodes; ++m) {
              if (m == n) continue;
              // The sync source must be at least as up to date as us, and
              // our log must be a prefix of its log: capping the learned
              // commit point at our last applied is only sound when our
              // last entry IS the source's entry at that index (otherwise
              // a node could fabricate a commit point for a doomed entry
              // on a divergent branch).
              if (LastApplied(s, m) < last) continue;
              if (CommonPrefixLen(OplogOf(s, n), OplogOf(s, m)) !=
                  static_cast<int64_t>(OplogOf(s, n).size())) {
                continue;
              }
              Point theirs = PointFromValue(CommitPointOf(s, m));
              Point capped = std::min(theirs, last);
              if (!(mine < capped)) continue;
              out->push_back(WithNodeValue(
                  s, kCommitPoint, n,
                  RaftMongoSpec::CommitPointValue(capped.term,
                                                  capped.index)));
            }
          }
        },
        Footprint{{"commitPoint", "oplog"}, {"commitPoint"}}});
  }
}

void RaftMongoSpec::BuildInvariants() {
  const int num_nodes = config_.num_nodes;

  // The spec's core safety property: an entry named by any node's commit
  // point is held by a majority of nodes — committed writes are never
  // rolled back below a quorum. (A node may *know* a commit point for an
  // entry it does not hold yet: gossip spreads knowledge ahead of data.)
  invariants_.push_back(Invariant{
      "NeverRollbackCommitted", [num_nodes](const State& s) {
        for (int n = 0; n < num_nodes; ++n) {
          const Value& cp = CommitPointOf(s, n);
          if (cp.is_nil()) continue;
          Point p = PointFromValue(cp);
          int holders = 0;
          for (int q = 0; q < num_nodes; ++q) {
            if (LogContainsPoint(s, q, p)) ++holders;
          }
          if (holders * 2 <= num_nodes) return false;
        }
        return true;
      },
      {{"commitPoint", "oplog"}}});

  // The deliberate simplification the paper calls out (§4.2.2): the spec
  // assumes at most one leader at a time.
  invariants_.push_back(Invariant{
      "AtMostOneLeader", [num_nodes](const State& s) {
        int leaders = 0;
        for (int n = 0; n < num_nodes; ++n) {
          if (IsLeader(s, n)) ++leaders;
        }
        return leaders <= 1;
      },
      {{"role"}}});
}

bool SomeNodeCommitted(const tlax::State& state) {
  const Value& cps = state.var(RaftMongoSpec::kCommitPoint);
  for (size_t n = 0; n < cps.size(); ++n) {
    if (!cps.at(n).is_nil()) return true;
  }
  return false;
}

bool AllNodesShareNewestCommitPoint(const tlax::State& state) {
  const Value& cps = state.var(RaftMongoSpec::kCommitPoint);
  if (cps.size() == 0) return true;
  Point newest{};
  for (size_t n = 0; n < cps.size(); ++n) {
    Point p = PointFromValue(cps.at(n));
    if (newest < p) newest = p;
  }
  if (newest == Point{}) return false;
  for (size_t n = 0; n < cps.size(); ++n) {
    if (!(PointFromValue(cps.at(n)) == newest)) return false;
  }
  return true;
}

}  // namespace xmodel::specs
