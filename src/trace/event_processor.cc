#include "trace/event_processor.h"

#include <algorithm>

#include "common/strings.h"
#include "specs/raft_mongo_spec.h"

namespace xmodel::trace {

using common::Status;
using common::StrCat;
using specs::RaftMongoSpec;

namespace {

using tlax::Value;

// Mutable per-node working state during processing: the node's value of
// each logged spec variable, plus its oplog as plain terms for the repair
// rules, so an event rebuilds only the values it changed.
struct NodeView {
  Value role;
  Value term;
  Value commit_point;
  std::vector<int64_t> oplog;
  Value oplog_value;
  // Inferred initial-sync data-image prefix: entries the node holds as data
  // but not as oplog history, so its trace events omit them. Prepended to
  // every subsequent logged oplog from this node (the paper's solution 4).
  std::vector<int64_t> image_prefix;
};

// True when `suffix` is a strict suffix of `full`.
bool IsStrictSuffix(const std::vector<int64_t>& suffix,
                    const std::vector<int64_t>& full) {
  if (suffix.size() >= full.size()) return false;
  return std::equal(suffix.begin(), suffix.end(),
                    full.end() - static_cast<int64_t>(suffix.size()));
}

Value OplogValue(const std::vector<int64_t>& oplog) {
  std::vector<Value> entries;
  entries.reserve(oplog.size());
  for (int64_t t : oplog) entries.push_back(Value::Int(t));
  return Value::Seq(std::move(entries));
}

}  // namespace

ProcessedTrace EventProcessor::Process(
    const std::vector<TraceEvent>& events) const {
  ProcessedTrace out;
  const int num_nodes = options_.num_nodes;
  out.states.reserve(events.size() + 1);
  out.actions.reserve(events.size() + 1);

  // The logged spec variables, each with the NodeView field that holds
  // one node's value of it.
  static constexpr std::pair<int, Value NodeView::*> kColumns[] = {
      {RaftMongoSpec::kRole, &NodeView::role},
      {RaftMongoSpec::kTerm, &NodeView::term},
      {RaftMongoSpec::kCommitPoint, &NodeView::commit_point},
      {RaftMongoSpec::kOplog, &NodeView::oplog_value},
  };

  // The known initial state: every node a Follower at term 0 with an empty
  // oplog and no commit point.
  tlax::State state = RaftMongoSpec::MakeState(
      std::vector<std::string>(num_nodes, "Follower"),
      std::vector<int64_t>(num_nodes, 0),
      std::vector<std::pair<int64_t, int64_t>>(num_nodes, {0, 0}),
      std::vector<std::vector<int64_t>>(num_nodes));
  std::vector<NodeView> nodes(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    for (const auto& [var, field] : kColumns) {
      nodes[i].*field = state.var(var).at(i);
    }
  }
  out.states.push_back(state);
  out.actions.push_back("Init");

  // A variable's per-node tuple, from the nodes' current values.
  auto column = [&nodes](Value NodeView::*field) {
    std::vector<Value> tuple;
    tuple.reserve(nodes.size());
    for (const NodeView& node : nodes) tuple.push_back(node.*field);
    return Value::Seq(std::move(tuple));
  };
  const Value leader = Value::Str("Leader");
  const Value follower = Value::Str("Follower");
  // The event's repaired oplog; kept across events to reuse its buffer.
  std::vector<int64_t> repaired;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.node_id < 0 || e.node_id >= num_nodes) {
      out.status = Status::InvalidArgument(
          StrCat("event ", i, " names unknown node ", e.node_id));
      return out;
    }
    NodeView& n = nodes[e.node_id];

    // Unlogged variables (partial-state logging): keep the previous value.
    if (!options_.fill_in_unlogged_variables &&
        (!e.role.has_value() || !e.term.has_value() ||
         !e.commit_point.has_value() || !e.oplog_terms.has_value())) {
      out.status = Status::InvalidArgument(
          StrCat("event ", i, " is partial but fill-in is disabled"));
      return out;
    }

    // The spec variables this event changed, one bit per variable index.
    unsigned changed = 0;
    auto set = [&changed](Value* slot, const Value& v, int var) {
      if (*slot == v) return;
      *slot = v;
      changed |= 1u << var;
    };

    // Figure 3 role rule: a Leader event demotes everyone else; the script
    // assumes there are never two leaders at once.
    if (e.role.has_value()) {
      const Value role = Value::Str(*e.role);
      if (role == leader) {
        for (NodeView& other : nodes) {
          if (&other != &n) set(&other.role, follower, RaftMongoSpec::kRole);
        }
      }
      set(&n.role, role, RaftMongoSpec::kRole);
    }
    if (e.term.has_value()) {
      set(&n.term, Value::Int(*e.term), RaftMongoSpec::kTerm);
    }
    if (e.commit_point.has_value()) {
      set(&n.commit_point,
          RaftMongoSpec::CommitPointValue(e.commit_point->term,
                                          e.commit_point->index),
          RaftMongoSpec::kCommitPoint);
    }
    if (e.oplog_terms.has_value()) {
      const std::vector<int64_t>& logged = *e.oplog_terms;
      if (options_.fill_in_missing_oplog_entries) {
        // Initial-sync repair (the paper's solution 4): the implementation
        // copies only recent entries, so an initial-synced node's events
        // omit the data-image prefix for the rest of its life; the spec
        // copies the whole log. Detect the resync on an AppendOplog event
        // whose logged oplog is inconsistent with the node's repaired
        // history but IS a strict suffix of another node's log; remember
        // the inferred prefix and prepend it to this and all later events
        // from the node.
        repaired.assign(n.image_prefix.begin(), n.image_prefix.end());
        repaired.insert(repaired.end(), logged.begin(), logged.end());
        // An AppendOplog event can only extend the log: a repaired log
        // that is shorter than the node's previous log, or that disagrees
        // on the shared prefix, signals a fresh initial sync.
        bool consistent_with_history =
            repaired.size() >= n.oplog.size() &&
            std::equal(n.oplog.begin(), n.oplog.end(), repaired.begin());
        // A second tell-tale: a "fresh" log that is not a prefix of any
        // other node's log (so it cannot be a normal append of the first
        // entries) but is a strict suffix of one.
        bool is_prefix_of_some = logged.empty();
        for (const NodeView& other : nodes) {
          if (&other == &n || logged.size() > other.oplog.size()) continue;
          if (std::equal(logged.begin(), logged.end(), other.oplog.begin())) {
            is_prefix_of_some = true;
            break;
          }
        }
        if (e.action == "AppendOplog" &&
            (!consistent_with_history || !is_prefix_of_some)) {
          for (const NodeView& other : nodes) {
            if (&other == &n) continue;
            if (!logged.empty() && IsStrictSuffix(logged, other.oplog)) {
              n.image_prefix.assign(other.oplog.begin(),
                                    other.oplog.end() -
                                        static_cast<int64_t>(logged.size()));
              repaired = other.oplog;
              break;
            }
          }
        }
      } else {
        repaired.assign(logged.begin(), logged.end());
      }
      if (repaired != n.oplog) {
        set(&n.oplog_value, OplogValue(repaired), RaftMongoSpec::kOplog);
        n.oplog.swap(repaired);
      }
    }

    // Rebuild only the per-node tuples this event changed.
    for (const auto& [var, field] : kColumns) {
      if (changed & (1u << var)) state = state.With(var, column(field));
    }
    out.states.push_back(state);
    out.actions.push_back(e.action);
  }
  return out;
}

}  // namespace xmodel::trace
