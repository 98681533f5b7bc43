#include "mbtcg/testcase.h"

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <utility>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace xmodel::mbtcg {

using common::Result;
using common::Status;
using common::StrCat;
using ot::Operation;
using ot::OpType;
using tlax::Value;

namespace {

Result<Operation> OpFromValue(const Value& v) {
  const Value* type = v.Field("type");
  if (type == nullptr) return Status::Corruption("op record without type");
  const std::string_view t = type->string_value();
  int64_t ndx = v.FieldOrDie("ndx").int_value();
  int64_t ndx2 = v.FieldOrDie("ndx2").int_value();
  int64_t val = v.FieldOrDie("val").int_value();
  int64_t client = v.FieldOrDie("client").int_value();

  Operation op;
  if (t == "ArraySet") {
    op = Operation::Set(ndx, val);
  } else if (t == "ArrayInsert") {
    op = Operation::Insert(ndx, val);
  } else if (t == "ArrayMove") {
    op = Operation::Move(ndx, ndx2);
  } else if (t == "ArraySwap") {
    op = Operation::Swap(ndx, ndx2);
  } else if (t == "ArrayErase") {
    op = Operation::Erase(ndx);
  } else if (t == "ArrayClear") {
    op = Operation::Clear();
  } else {
    return Status::Corruption(StrCat("unknown op type '", t, "'"));
  }
  // The spec does not model time: timestamps are all zero and the client
  // id breaks last-write-wins ties (§5.1.2).
  return op.At(/*ts=*/0, client);
}

Result<ot::Array> ArrayFromValue(const Value& v) {
  ot::Array out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (!v.at(i).is_int()) return Status::Corruption("non-int array element");
    out.push_back(v.at(i).int_value());
  }
  return out;
}

uint64_t FingerprintCase(const TestCase& c) {
  uint64_t h = common::HashString("testcase");
  for (int64_t x : c.initial) {
    h = common::HashCombine(h, common::Mix64(static_cast<uint64_t>(x)));
  }
  for (const Operation& op : c.client_ops) {
    h = common::HashCombine(h, common::HashString(op.ToString()));
  }
  for (int64_t x : c.final_array) {
    h = common::HashCombine(h, common::Mix64(static_cast<uint64_t>(x)));
  }
  return h;
}

// The extraction engine's view of the recorded graph: adjacency with
// action labels pre-resolved to ranks in the sorted unique label table (one
// decode pass over the edges, instead of re-touching label strings inside
// every path walk), and the initial nodes in declaration order.
struct DecodedGraph {
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>>
      adj;                      // from -> [(to, action rank)].
  std::vector<uint32_t> roots;  // In declared initial order.
};

// Reads the variables extraction needs from recorded states. Their indices
// are resolved once from the spec's variable names; a variable the spec
// does not declare, or a state too short to hold it, reads as null.
class StateVarView {
 public:
  enum Var { kErr, kClientLog, kAppliedOps, kServerState, kNumVars };

  StateVarView(const tlax::StateGraph& graph,
               const std::vector<std::string>& variables)
      : graph_(graph) {
    static constexpr const char* kNames[kNumVars] = {
        "err", "clientLog", "appliedOps", "serverState"};
    for (int v = 0; v < kNumVars; ++v) {
      auto it = std::find(variables.begin(), variables.end(), kNames[v]);
      index_[v] = it == variables.end()
                      ? SIZE_MAX
                      : static_cast<size_t>(it - variables.begin());
    }
  }

  const Value* Get(uint32_t node, Var var) const {
    const tlax::State& s = graph_.state(node);
    return index_[var] < s.num_vars() ? &s.var(index_[var]) : nullptr;
  }

 private:
  const tlax::StateGraph& graph_;
  size_t index_[kNumVars];
};

std::string ActionLabel(const std::vector<std::string>& names, size_t a) {
  return a < names.size() ? names[a] : StrCat("action", a);
}

// Ranks actions by their label in the sorted unique label table: that rank
// is the path key that orders the emitted cases. Each distinct action id is
// labelled and ranked once; every edge then maps through the id -> rank
// table.
DecodedGraph DecodeStateGraph(const tlax::StateGraph& graph) {
  const size_t n = graph.num_states();
  std::vector<char> used;  // Indexed by action id.
  for (uint32_t from = 0; from < n; ++from) {
    for (const tlax::StateGraph::Edge& e : graph.out_edges(from)) {
      if (e.action >= used.size()) used.resize(e.action + size_t{1}, 0);
      used[e.action] = 1;
    }
  }
  const std::vector<std::string>& names = graph.action_names();
  std::vector<std::string> labels;
  for (size_t a = 0; a < used.size(); ++a) {
    if (used[a]) labels.push_back(ActionLabel(names, a));
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::vector<uint32_t> rank(used.size(), 0);
  for (size_t a = 0; a < used.size(); ++a) {
    if (!used[a]) continue;
    rank[a] = static_cast<uint32_t>(
        std::lower_bound(labels.begin(), labels.end(),
                         ActionLabel(names, a)) -
        labels.begin());
  }

  DecodedGraph d;
  d.adj.resize(n);
  for (uint32_t from = 0; from < n; ++from) {
    const std::vector<tlax::StateGraph::Edge>& edges = graph.out_edges(from);
    d.adj[from].reserve(edges.size());
    for (const tlax::StateGraph::Edge& e : edges) {
      d.adj[from].emplace_back(e.to, rank[e.action]);
    }
  }
  for (uint32_t id : graph.initial_states()) d.roots.push_back(id);
  return d;
}

// One terminal leaf claimed by one root: the unit of parallel extraction.
// `path` is the action-rank sequence of the BFS-shortest path from the
// root — with the decoded adjacency fixed, it is a pure function of the
// graph, so sorting items by (root, path, leaf id) gives an output order
// independent of worker count.
struct WorkItem {
  size_t root_ordinal = 0;
  std::vector<uint32_t> path;
  uint32_t leaf = 0;
};

std::vector<WorkItem> EnumerateLeaves(const DecodedGraph& d) {
  constexpr uint32_t kNone = UINT32_MAX;
  const size_t n = d.adj.size();
  std::vector<uint32_t> parent(n, kNone);
  std::vector<uint32_t> via(n, 0);
  std::vector<char> visited(n, 0);
  std::vector<WorkItem> items;
  std::vector<uint32_t> queue;
  for (size_t r = 0; r < d.roots.size(); ++r) {
    const uint32_t root = d.roots[r];
    if (visited[root]) continue;  // Claimed by an earlier root.
    visited[root] = 1;
    queue.assign(1, root);
    for (size_t head = 0; head < queue.size(); ++head) {
      const uint32_t u = queue[head];
      if (d.adj[u].empty()) {
        WorkItem item;
        item.root_ordinal = r;
        item.leaf = u;
        for (uint32_t w = u; parent[w] != kNone; w = parent[w]) {
          item.path.push_back(via[w]);
        }
        std::reverse(item.path.begin(), item.path.end());
        items.push_back(std::move(item));
      }
      for (const auto& [to, action] : d.adj[u]) {
        if (visited[to]) continue;
        visited[to] = 1;
        parent[to] = u;
        via[to] = action;
        queue.push_back(to);
      }
    }
  }
  std::sort(items.begin(), items.end(),
            [](const WorkItem& a, const WorkItem& b) {
              if (a.root_ordinal != b.root_ordinal) {
                return a.root_ordinal < b.root_ordinal;
              }
              if (a.path != b.path) return a.path < b.path;
              return a.leaf < b.leaf;
            });
  return items;
}

// Extracts the case for one leaf; sets *skip when the leaf is poisoned
// (err = TRUE: a non-terminating merge produces no test case).
Status ExtractOne(const StateVarView& view, uint32_t leaf,
                  const ot::Array& initial, int num_clients, TestCase* out,
                  bool* skip) {
  const Value* err = view.Get(leaf, StateVarView::kErr);
  if (err == nullptr) return Status::Corruption("leaf lacks variable err");
  if (err->is_bool() && err->bool_value()) {
    *skip = true;
    return Status::OK();
  }

  const Value* client_log = view.Get(leaf, StateVarView::kClientLog);
  if (client_log == nullptr) {
    return Status::Corruption("leaf lacks variable clientLog");
  }
  const Value* applied = view.Get(leaf, StateVarView::kAppliedOps);
  if (applied == nullptr) {
    return Status::Corruption("leaf lacks variable appliedOps");
  }
  const Value* server_state = view.Get(leaf, StateVarView::kServerState);
  if (server_state == nullptr) {
    return Status::Corruption("leaf lacks variable serverState");
  }

  TestCase c;
  c.initial = initial;
  for (int client = 1; client <= num_clients; ++client) {
    // The client's own operation is the first entry of its log (ops are
    // performed before any merge).
    const Value& log = client_log->Index1(client);
    if (log.size() == 0) {
      return Status::Corruption(
          StrCat("client ", client, " has an empty log in a leaf state"));
    }
    Result<Operation> own = OpFromValue(log.at(0));
    if (!own.ok()) return own.status();
    c.client_ops.push_back(*own);

    ot::OpList applied_ops;
    const Value& applied_seq = applied->Index1(client);
    for (size_t i = 0; i < applied_seq.size(); ++i) {
      Result<Operation> op = OpFromValue(applied_seq.at(i));
      if (!op.ok()) return op.status();
      applied_ops.push_back(*op);
    }
    c.applied_ops.push_back(std::move(applied_ops));
  }

  Result<ot::Array> final_array = ArrayFromValue(*server_state);
  if (!final_array.ok()) return final_array.status();
  c.final_array = *final_array;
  c.case_id = FingerprintCase(c);
  *out = std::move(c);
  return Status::OK();
}

}  // namespace

Result<std::vector<TestCase>> ExtractTestCases(
    const tlax::StateGraph& graph, const std::vector<std::string>& variables,
    int num_clients, int num_workers) {
  const DecodedGraph decoded = DecodeStateGraph(graph);
  const StateVarView view(graph, variables);
  if (decoded.roots.empty()) {
    return Status::Corruption("graph has no initial node");
  }
  // Each root's initial array is parsed once, serially, up front.
  std::vector<ot::Array> initials(decoded.roots.size());
  for (size_t r = 0; r < decoded.roots.size(); ++r) {
    const Value* server_state =
        view.Get(decoded.roots[r], StateVarView::kServerState);
    if (server_state == nullptr) {
      return Status::Corruption("initial node lacks serverState");
    }
    Result<ot::Array> initial = ArrayFromValue(*server_state);
    if (!initial.ok()) return initial.status();
    initials[r] = std::move(*initial);
  }

  const std::vector<WorkItem> items = EnumerateLeaves(decoded);

  // Fan the per-leaf extraction out over the pool: each result lands in
  // its item's pre-assigned slot, so output order is the item order
  // regardless of scheduling.
  std::vector<TestCase> slots(items.size());
  std::vector<char> filled(items.size(), 0);
  std::vector<Status> errors(items.size(), Status::OK());
  common::WorkerPool pool(common::ResolveWorkerCount(num_workers));
  common::ParallelFor(&pool, items.size(), [&](size_t i) {
    const WorkItem& item = items[i];
    bool skip = false;
    Status s = ExtractOne(view, item.leaf, initials[item.root_ordinal],
                          num_clients, &slots[i], &skip);
    if (!s.ok()) {
      errors[i] = std::move(s);
    } else if (!skip) {
      filled[i] = 1;
    }
  });

  for (size_t i = 0; i < items.size(); ++i) {
    if (!errors[i].ok()) return errors[i];  // First error in item order.
  }
  std::vector<TestCase> cases;
  cases.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (filled[i]) cases.push_back(std::move(slots[i]));
  }
  return cases;
}

}  // namespace xmodel::mbtcg
