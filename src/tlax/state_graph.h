#ifndef XMODEL_TLAX_STATE_GRAPH_H_
#define XMODEL_TLAX_STATE_GRAPH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tlax/state.h"

namespace xmodel::tlax {

/// The explored reachability graph: states are numbered in discovery (BFS)
/// order; each edge carries the index of the action that produced it.
///
/// This mirrors TLC's `-dump dot` output, which the paper's MBTCG pipeline
/// parses to generate test cases (§5.2).
///
/// Construction is concurrent recording by the checker: the graph doubles
/// as a sharded fingerprint → id index, so N workers can record edges while
/// the level drains and still produce a graph that is *byte-identical* to
/// the single-worker one:
///
///  - `RecordEdge(worker, from_id, to_fp, action)` — appends to a
///    worker-local edge buffer, completely lock-free. A node's out-edges are
///    produced by exactly one ProcessEntry call on exactly one worker, so
///    per-source edge order (the only order DOT output observes) is already
///    deterministic; buffers can merge in any worker order.
///  - `AddNodes(n)` then `SetNode(id, fp, state)` — at the level barrier,
///    the checker numbers the level's constrained new states in the
///    settled order of its next level (the fingerprint table's min-merged
///    order key — the key of the event a serial scan would have discovered
///    the state with). SetNode calls for distinct ids may run in parallel.
///  - `ResolveEdges(worker)` — after every SetNode of the level, resolves
///    one worker's buffered edges fingerprint→id and appends them; one call
///    per worker, in parallel. Node ids, edge lists, and therefore `ToDot`
///    become a pure function of the state graph, independent of worker
///    count.
///
/// States outside the spec constraint get no id (IdOf answers `kNoId`), so
/// edges to them are dropped, matching the serial checker.
class StateGraph {
 public:
  /// Id sentinel for fingerprints that carry no graph node (states outside
  /// the constraint, or unknown fingerprints).
  static constexpr uint32_t kNoId = UINT32_MAX;

  struct Edge {
    uint32_t to = 0;
    uint16_t action = 0;
  };

  StateGraph();

  /// Appends a node holding `state` with no edges; returns its id.
  uint32_t AddState(State state) {
    states_.push_back(std::move(state));
    edges_.emplace_back();
    return static_cast<uint32_t>(states_.size() - 1);
  }

  // --- Concurrent recording ------------------------------------------------

  /// Sizes the per-worker edge buffers. Must be called before the first
  /// RecordEdge; safe to call once per run.
  void BeginRecording(int num_workers);

  /// Serial seeding of an initial state: assigns its node id immediately
  /// (seed order is the discovery order of level 0) and marks it initial
  /// when it is within the constraint. Returns the id, or kNoId for
  /// unconstrained seeds.
  uint32_t RegisterSeed(uint64_t fp, const State& state, bool constrained);

  /// Buffers one edge event in `worker`'s local buffer (lock-free).
  /// `from_id` is the settled id of the expanding node; the target is
  /// named by fingerprint because its id may not exist until the barrier.
  void RecordEdge(int worker, uint32_t from_id, uint64_t to_fp,
                  uint16_t action);

  /// Level barrier, serial: appends `n` empty nodes for this level's
  /// constrained new states and returns the first new id.
  uint32_t AddNodes(size_t n);

  /// Level barrier: fills node `id` (from the last AddNodes) with `state`
  /// and indexes `fp` → `id`. Calls for distinct ids may run in parallel.
  void SetNode(uint32_t id, uint64_t fp, const State& state);

  /// Level barrier, after the level's SetNode calls: resolves `worker`'s
  /// buffered edges and appends them. Edges whose endpoint has no id are
  /// dropped. Calls for distinct workers may run in parallel.
  void ResolveEdges(int worker);

  /// The settled node id recorded for `fp`; kNoId when the fingerprint is
  /// unknown or its state was outside the constraint.
  uint32_t IdOf(uint64_t fp) const;

  // --- Read API ------------------------------------------------------------

  size_t num_states() const { return states_.size(); }
  size_t num_edges() const {
    size_t n = 0;
    for (const auto& out : edges_) n += out.size();
    return n;
  }
  /// Recorded edges beyond each non-initial node's discovery edge —
  /// re-visits of already-known states (TLC's duplicate-state events).
  size_t num_duplicate_edges() const {
    const size_t discovery = states_.size() - initial_.size();
    const size_t total = num_edges();
    return total > discovery ? total - discovery : 0;
  }
  const State& state(uint32_t id) const { return states_[id]; }
  const std::vector<Edge>& out_edges(uint32_t id) const { return edges_[id]; }
  const std::vector<uint32_t>& initial_states() const { return initial_; }

  void set_action_names(std::vector<std::string> names) {
    action_names_ = std::move(names);
  }
  const std::vector<std::string>& action_names() const {
    return action_names_;
  }

  /// Serializes the graph in GraphViz DOT format. Each node is labeled with
  /// the state's variables in TLA syntax (one `var = value` line per
  /// variable, as TLC does), and each edge with its action name: the
  /// state-graph export, like TLC's `-dump dot`.
  std::string ToDot(const std::vector<std::string>& variable_names) const;

 private:
  struct PendingEdge {
    uint64_t to_fp = 0;
    uint32_t from_id = 0;
    uint16_t action = 0;
  };
  // One shard of the settled fingerprint → id index: a flat table probed
  // linearly from the fingerprint's low bits (the shard is chosen by its
  // top bits), at most half full. An empty slot holds kNoId.
  struct IndexShard {
    mutable std::mutex mu;
    std::vector<std::pair<uint64_t, uint32_t>> slots;
    size_t size = 0;

    // Records fp → id unless fp already has an id. Call under mu.
    void Insert(uint64_t fp, uint32_t id);
    // fp's id, or kNoId. Call under mu.
    uint32_t Find(uint64_t fp) const;
  };

  IndexShard& ShardFor(uint64_t fp) {
    return shards_[(fp >> shard_shift_) & (shards_.size() - 1)];
  }
  const IndexShard& ShardFor(uint64_t fp) const {
    return shards_[(fp >> shard_shift_) & (shards_.size() - 1)];
  }

  std::vector<State> states_;
  std::vector<std::vector<Edge>> edges_;
  std::vector<uint32_t> initial_;
  std::vector<std::string> action_names_;

  std::vector<IndexShard> shards_;
  int shard_shift_ = 0;
  std::vector<std::vector<PendingEdge>> worker_edges_;
};

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_STATE_GRAPH_H_
