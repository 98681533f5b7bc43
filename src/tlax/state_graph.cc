#include "tlax/state_graph.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace xmodel::tlax {

namespace {

// Mirror of FingerprintSet's striping: many more stripes than workers keeps
// SetNode contention negligible, and using the fingerprint's *top* bits
// decorrelates shard selection from each shard's low-bit probing.
constexpr int kIndexShards = 64;
constexpr int kIndexShardBits = 6;

}  // namespace

StateGraph::StateGraph() : shards_(kIndexShards) {
  shard_shift_ = 64 - kIndexShardBits;
}

void StateGraph::BeginRecording(int num_workers) {
  worker_edges_.resize(
      static_cast<size_t>(num_workers < 1 ? 1 : num_workers));
}

uint32_t StateGraph::RegisterSeed(uint64_t fp, const State& state,
                                  bool constrained) {
  if (!constrained) return kNoId;
  const uint32_t id = AddState(state);
  {
    IndexShard& shard = ShardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.Insert(fp, id);
  }
  initial_.push_back(id);
  return id;
}

void StateGraph::RecordEdge(int worker, uint32_t from_id, uint64_t to_fp,
                            uint16_t action) {
  assert(static_cast<size_t>(worker) < worker_edges_.size());
  worker_edges_[static_cast<size_t>(worker)].push_back(
      PendingEdge{to_fp, from_id, action});
}

uint32_t StateGraph::AddNodes(size_t n) {
  const size_t first = states_.size();
  states_.resize(first + n);
  edges_.resize(first + n);
  return static_cast<uint32_t>(first);
}

void StateGraph::SetNode(uint32_t id, uint64_t fp, const State& state) {
  states_[id] = state;
  IndexShard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.Insert(fp, id);
}

void StateGraph::ResolveEdges(int worker) {
  // A node's out-edges live in exactly one worker's buffer (its single
  // expansion), already in action/successor order, so each worker's
  // buffer appends to its own source nodes' lists: resolving buffers in
  // parallel preserves the only ordering DOT output observes, the
  // per-source edge list.
  std::vector<PendingEdge>& buffer =
      worker_edges_[static_cast<size_t>(worker)];
  for (const PendingEdge& edge : buffer) {
    if (edge.from_id == kNoId) continue;
    const uint32_t to = IdOf(edge.to_fp);
    if (to == kNoId) continue;
    edges_[edge.from_id].push_back(Edge{to, edge.action});
  }
  buffer.clear();
}

uint32_t StateGraph::IdOf(uint64_t fp) const {
  const IndexShard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.Find(fp);
}

void StateGraph::IndexShard::Insert(uint64_t fp, uint32_t id) {
  if ((size + 1) * 2 > slots.size()) {
    std::vector<std::pair<uint64_t, uint32_t>> old(
        std::max<size_t>(16, slots.size() * 2), {0, kNoId});
    old.swap(slots);
    size = 0;
    for (const auto& [old_fp, old_id] : old) {
      if (old_id != kNoId) Insert(old_fp, old_id);
    }
  }
  const size_t mask = slots.size() - 1;
  size_t i = fp & mask;
  while (slots[i].second != kNoId) {
    if (slots[i].first == fp) return;
    i = (i + 1) & mask;
  }
  slots[i] = {fp, id};
  ++size;
}

uint32_t StateGraph::IndexShard::Find(uint64_t fp) const {
  if (slots.empty()) return kNoId;
  const size_t mask = slots.size() - 1;
  for (size_t i = fp & mask; slots[i].second != kNoId; i = (i + 1) & mask) {
    if (slots[i].first == fp) return slots[i].second;
  }
  return kNoId;
}

std::string StateGraph::ToDot(
    const std::vector<std::string>& variable_names) const {
  std::string out;
  out += "digraph DiskGraph {\n";
  for (uint32_t init : initial_) {
    out += common::StrCat("  ", init, " [style = filled]\n");
  }
  for (uint32_t id = 0; id < states_.size(); ++id) {
    const State& s = states_[id];
    std::string label;
    for (size_t v = 0; v < s.num_vars(); ++v) {
      if (v > 0) label += "\\n";
      label += variable_names[v];
      label += " = ";
      label += s.var(v).ToTla();
    }
    out += common::StrCat("  ", id, " [label=", common::JsonEscape(label),
                          "]\n");
  }
  for (uint32_t from = 0; from < edges_.size(); ++from) {
    for (const Edge& e : edges_[from]) {
      std::string action = e.action < action_names_.size()
                               ? action_names_[e.action]
                               : common::StrCat("action", e.action);
      out += common::StrCat("  ", from, " -> ", e.to,
                            " [label=", common::JsonEscape(action), "]\n");
    }
  }
  out += "}\n";
  return out;
}

}  // namespace xmodel::tlax
