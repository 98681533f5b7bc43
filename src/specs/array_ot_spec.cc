#include "specs/array_ot_spec.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/hash.h"
#include "common/strings.h"

// The transcribed merge rules. This file is the analogue of the paper's
// array_ot.tla: the CASE structure below was transcribed by hand from
// ot/merge_rules.cc and intentionally shares no code with it. The paper's
// Figure 7 shows the ArrayErase x ArraySet rule in TLA+; TransformPair
// below contains the same rule in the same shape.

namespace xmodel::specs {

using tlax::Action;
using tlax::Footprint;
using tlax::Invariant;
using tlax::State;
using tlax::Value;

namespace {

// A parsed operation record (the spec works on Value records; this struct
// is only local plumbing for the transcription).
struct SpecOp {
  std::string type;
  int64_t ndx = 0;
  int64_t ndx2 = 0;
  int64_t val = 0;
  int64_t client = 0;

  bool operator==(const SpecOp&) const = default;
};

struct SpecOpHash {
  size_t operator()(const SpecOp& op) const {
    uint64_t h = common::HashString(op.type);
    for (int64_t x : {op.ndx, op.ndx2, op.val, op.client}) {
      h = common::HashCombine(h, static_cast<uint64_t>(x));
    }
    return static_cast<size_t>(h);
  }
};

struct SpecPair {
  std::vector<SpecOp> left;
  std::vector<SpecOp> right;
};

SpecOp DecodeOp(const Value& v) {
  SpecOp op;
  op.type = v.FieldOrDie("type").string_value();
  op.ndx = v.FieldOrDie("ndx").int_value();
  op.ndx2 = v.FieldOrDie("ndx2").int_value();
  op.val = v.FieldOrDie("val").int_value();
  op.client = v.FieldOrDie("client").int_value();
  return op;
}

// Every merge step reads and writes operation records, and a run sees only
// a few hundred distinct ones, so both conversions are memoized per thread
// (no locks on the checker's hot path). A global rep is never freed, so
// its address is a key that cannot dangle; a scoped one (built inside a
// Value::InternScope) is freed at the scope's close, so neither memo keeps
// one.
SpecOp FromValue(const Value& v) {
  thread_local std::unordered_map<const void*, SpecOp> memo;
  assert(!v.is_inline() && "operation records are interned");
  if (v.is_scoped()) return DecodeOp(v);
  auto [it, inserted] = memo.try_emplace(v.interned_rep());
  if (inserted) it->second = DecodeOp(v);
  return it->second;
}

Value ToValue(const SpecOp& op) {
  thread_local std::unordered_map<SpecOp, Value, SpecOpHash> memo;
  auto it = memo.find(op);
  if (it != memo.end()) return it->second;
  const Value record = Value::Record({{"type", Value::Str(op.type)},
                                      {"ndx", Value::Int(op.ndx)},
                                      {"ndx2", Value::Int(op.ndx2)},
                                      {"val", Value::Int(op.val)},
                                      {"client", Value::Int(op.client)}});
  if (!record.is_scoped()) memo.emplace(op, record);
  return record;
}

// The specification does not model time (§5.1.2); operation order falls
// back to the client id.
bool SpecWins(const SpecOp& a, const SpecOp& b) { return a.client > b.client; }

int64_t PosThroughMove(int64_t p, int64_t f, int64_t t) {
  int64_t q = p > f ? p - 1 : p;
  return q >= t ? q + 1 : q;
}

struct TranscriptionFlags {
  bool swap_move_bug = false;
  bool inject_transcription_error = false;
  int max_depth = 64;
};

SpecPair TransformLists(const std::vector<SpecOp>& a,
                        const std::vector<SpecOp>& b,
                        const TranscriptionFlags& flags, int depth,
                        bool* err);

// Transform_X_Y(a, b) — the transcription of the 21 pairwise rules.
// Returns Pair(<<a transformed>>, <<b transformed>>), as in Figure 7.
SpecPair TransformPair(const SpecOp& a, const SpecOp& b,
                       const TranscriptionFlags& flags, int depth,
                       bool* err) {
  if (depth > flags.max_depth) {
    *err = true;  // TLC would die with a StackOverflowError here (§5.1.3).
    return {};
  }
  auto pair = [](std::vector<SpecOp> l, std::vector<SpecOp> r) {
    return SpecPair{std::move(l), std::move(r)};
  };

  // Canonicalize: handle each unordered pair once.
  static const char* kOrder[] = {"ArraySet",   "ArrayInsert", "ArrayMove",
                                 "ArraySwap",  "ArrayErase",  "ArrayClear"};
  auto rank = [](const std::string& t) {
    for (int i = 0; i < 6; ++i) {
      if (t == kOrder[i]) return i;
    }
    return 6;
  };
  if (rank(a.type) > rank(b.type)) {
    SpecPair r = TransformPair(b, a, flags, depth, err);
    std::swap(r.left, r.right);
    return r;
  }

  // Swap decomposition (for x != y, with x < y):
  //   Swap(x, y) == Move(x -> y) ++ Move(y-1 -> x)
  auto swap_to_moves = [](const SpecOp& s) {
    int64_t x = std::min(s.ndx, s.ndx2), y = std::max(s.ndx, s.ndx2);
    std::vector<SpecOp> moves;
    if (x == y) return moves;
    moves.push_back(SpecOp{"ArrayMove", x, y, 0, s.client});
    moves.push_back(SpecOp{"ArrayMove", y - 1, x, 0, s.client});
    return moves;
  };

  if (a.type == "ArraySet") {
    if (b.type == "ArraySet") {
      if (a.ndx == b.ndx) {
        return SpecWins(a, b) ? pair({a}, {}) : pair({}, {b});
      }
      return pair({a}, {b});
    }
    if (b.type == "ArrayInsert") {
      SpecOp a2 = a;
      if (b.ndx <= a.ndx) a2.ndx = a.ndx + 1;
      return pair({a2}, {b});
    }
    if (b.type == "ArrayMove") {
      SpecOp a2 = a;
      a2.ndx = a.ndx == b.ndx ? b.ndx2 : PosThroughMove(a.ndx, b.ndx, b.ndx2);
      return pair({a2}, {b});
    }
    if (b.type == "ArraySwap") {
      SpecOp a2 = a;
      if (a.ndx == b.ndx) {
        a2.ndx = b.ndx2;
      } else if (a.ndx == b.ndx2) {
        a2.ndx = b.ndx;
      }
      return pair({a2}, {b});
    }
    if (b.type == "ArrayErase") {
      // Transform_ArrayErase_ArraySet, Figure 7 (roles mirrored):
      //   CASE setOp.ndx = eraseOp.ndx -> Pair(<<eraseOp>>, <<>>)
      //     [] setOp.ndx > eraseOp.ndx ->
      //          Pair(<<eraseOp>>, <<[setOp EXCEPT !.ndx = @ - 1]>>)
      //     [] OTHER -> Pair(<<eraseOp>>, <<setOp>>)
      if (a.ndx == b.ndx) return pair({}, {b});
      SpecOp a2 = a;
      if (!flags.inject_transcription_error && a.ndx > b.ndx) {
        // The index shift the injected transcription error "forgets".
        a2.ndx = a.ndx - 1;
      }
      return pair({a2}, {b});
    }
    // ArrayClear.
    return pair({}, {b});
  }

  if (a.type == "ArrayInsert") {
    if (b.type == "ArrayInsert") {
      SpecOp a2 = a, b2 = b;
      if (a.ndx < b.ndx) {
        b2.ndx = b.ndx + 1;
      } else if (b.ndx < a.ndx) {
        a2.ndx = a.ndx + 1;
      } else if (SpecWins(a, b)) {
        b2.ndx = b.ndx + 1;
      } else {
        a2.ndx = a.ndx + 1;
      }
      return pair({a2}, {b2});
    }
    if (b.type == "ArrayMove") {
      SpecOp a2 = a, b2 = b;
      int64_t gap = a.ndx > b.ndx ? a.ndx - 1 : a.ndx;
      if (gap > b.ndx2) gap += 1;
      a2.ndx = gap;
      int64_t g_reduced = a.ndx > b.ndx ? a.ndx - 1 : a.ndx;
      if (b.ndx >= a.ndx) b2.ndx = b.ndx + 1;
      if (b.ndx2 >= g_reduced) b2.ndx2 = b.ndx2 + 1;
      return pair({a2}, {b2});
    }
    if (b.type == "ArraySwap") {
      SpecOp b2 = b;
      if (b.ndx >= a.ndx) b2.ndx = b.ndx + 1;
      if (b.ndx2 >= a.ndx) b2.ndx2 = b.ndx2 + 1;
      return pair({a}, {b2});
    }
    if (b.type == "ArrayErase") {
      SpecOp a2 = a, b2 = b;
      if (a.ndx > b.ndx) a2.ndx = a.ndx - 1;
      if (b.ndx >= a.ndx) b2.ndx = b.ndx + 1;
      return pair({a2}, {b2});
    }
    // ArrayClear: the clear wins; the concurrent insert is discarded.
    return pair({}, {b});
  }

  if (a.type == "ArrayMove") {
    if (b.type == "ArrayMove") {
      if (a.ndx == b.ndx) {
        if (SpecWins(a, b)) {
          if (b.ndx2 == a.ndx2) return pair({}, {});
          SpecOp a2 = a;
          a2.ndx = b.ndx2;
          return pair({a2}, {});
        }
        if (a.ndx2 == b.ndx2) return pair({}, {});
        SpecOp b2 = b;
        b2.ndx = a.ndx2;
        return pair({}, {b2});
      }
      auto transform_one = [](const SpecOp& op, const SpecOp& other,
                              bool op_wins) {
        SpecOp out = op;
        int64_t src = op.ndx > other.ndx ? op.ndx - 1 : op.ndx;
        if (src >= other.ndx2) src += 1;
        int64_t other_src_reduced =
            other.ndx > op.ndx ? other.ndx - 1 : other.ndx;
        int64_t gap =
            op.ndx2 > other_src_reduced ? op.ndx2 - 1 : op.ndx2;
        int64_t op_src_reduced = op.ndx > other.ndx ? op.ndx - 1 : op.ndx;
        int64_t other_dst_reduced =
            other.ndx2 > op_src_reduced ? other.ndx2 - 1 : other.ndx2;
        if (gap > other_dst_reduced ||
            (gap == other_dst_reduced && !op_wins)) {
          gap += 1;
        }
        out.ndx = src;
        out.ndx2 = gap;
        return out;
      };
      bool a_wins = SpecWins(a, b);
      return pair({transform_one(a, b, a_wins)},
                  {transform_one(b, a, !a_wins)});
    }
    if (b.type == "ArraySwap") {
      bool spans_swap = std::min(a.ndx, a.ndx2) == std::min(b.ndx, b.ndx2) &&
                        std::max(a.ndx, a.ndx2) == std::max(b.ndx, b.ndx2);
      if (flags.swap_move_bug && spans_swap && a.ndx != a.ndx2) {
        // The transcribed bug: "normalize" the move by flipping it, then
        // re-merge. The flipped move spans the same range — the rewrite
        // never terminates (§5.1.3).
        SpecOp flipped = a;
        flipped.ndx = a.ndx2;
        flipped.ndx2 = a.ndx;
        return TransformPair(flipped, b, flags, depth + 1, err);
      }
      return TransformLists({a}, swap_to_moves(b), flags, depth + 1, err);
    }
    if (b.type == "ArrayErase") {
      if (b.ndx == a.ndx) {
        SpecOp b2 = b;
        b2.ndx = a.ndx2;
        return pair({}, {b2});
      }
      SpecOp a2 = a, b2 = b;
      int64_t erase_reduced = b.ndx > a.ndx ? b.ndx - 1 : b.ndx;
      if (a.ndx > b.ndx) a2.ndx = a.ndx - 1;
      if (a.ndx2 > erase_reduced) a2.ndx2 = a.ndx2 - 1;
      b2.ndx = PosThroughMove(b.ndx, a.ndx, a.ndx2);
      return pair({a2}, {b2});
    }
    // ArrayClear.
    return pair({}, {b});
  }

  if (a.type == "ArraySwap") {
    if (b.type == "ArraySwap") {
      return TransformLists(swap_to_moves(a), swap_to_moves(b), flags,
                            depth + 1, err);
    }
    if (b.type == "ArrayErase") {
      return TransformLists(swap_to_moves(a), {b}, flags, depth + 1, err);
    }
    // ArrayClear.
    return pair({}, {b});
  }

  if (a.type == "ArrayErase") {
    if (b.type == "ArrayErase") {
      if (a.ndx == b.ndx) return pair({}, {});
      SpecOp a2 = a, b2 = b;
      if (a.ndx > b.ndx) {
        a2.ndx = a.ndx - 1;
      } else {
        b2.ndx = b.ndx - 1;
      }
      return pair({a2}, {b2});
    }
    // ArrayClear.
    return pair({}, {b});
  }

  // ArrayClear x ArrayClear.
  return pair({}, {});
}

// The list transform, transcribed with the same decomposition as the
// implementation's rebase.
SpecPair TransformOpVsList(const SpecOp& a, const std::vector<SpecOp>& b,
                           const TranscriptionFlags& flags, int depth,
                           bool* err);

SpecPair TransformLists(const std::vector<SpecOp>& a,
                        const std::vector<SpecOp>& b,
                        const TranscriptionFlags& flags, int depth,
                        bool* err) {
  if (depth > flags.max_depth) {
    *err = true;
    return {};
  }
  if (a.empty()) return SpecPair{{}, b};
  if (b.empty()) return SpecPair{a, {}};
  SpecPair head = TransformOpVsList(a.front(), b, flags, depth + 1, err);
  if (*err) return {};
  std::vector<SpecOp> rest(a.begin() + 1, a.end());
  SpecPair tail = TransformLists(rest, head.right, flags, depth + 1, err);
  if (*err) return {};
  SpecPair out;
  out.left = std::move(head.left);
  out.left.insert(out.left.end(), tail.left.begin(), tail.left.end());
  out.right = std::move(tail.right);
  return out;
}

SpecPair TransformOpVsList(const SpecOp& a, const std::vector<SpecOp>& b,
                           const TranscriptionFlags& flags, int depth,
                           bool* err) {
  if (depth > flags.max_depth) {
    *err = true;
    return {};
  }
  if (b.empty()) return SpecPair{{a}, {}};
  SpecPair head = TransformPair(a, b.front(), flags, depth + 1, err);
  if (*err) return {};
  std::vector<SpecOp> rest(b.begin() + 1, b.end());
  SpecPair tail = TransformLists(head.left, rest, flags, depth + 1, err);
  if (*err) return {};
  SpecPair out;
  out.left = std::move(tail.left);
  out.right = std::move(head.right);
  out.right.insert(out.right.end(), tail.right.begin(), tail.right.end());
  return out;
}

// Applies an op record to an array of Values (sequence of ints). Returns
// false on an out-of-range index (a transcription bug).
bool ApplySpecOp(const SpecOp& op, std::vector<int64_t>* array) {
  int64_t n = static_cast<int64_t>(array->size());
  if (op.type == "ArraySet") {
    if (op.ndx < 0 || op.ndx >= n) return false;
    (*array)[op.ndx] = op.val;
    return true;
  }
  if (op.type == "ArrayInsert") {
    if (op.ndx < 0 || op.ndx > n) return false;
    array->insert(array->begin() + op.ndx, op.val);
    return true;
  }
  if (op.type == "ArrayMove") {
    if (op.ndx < 0 || op.ndx >= n || op.ndx2 < 0 || op.ndx2 >= n) {
      return false;
    }
    int64_t e = (*array)[op.ndx];
    array->erase(array->begin() + op.ndx);
    array->insert(array->begin() + op.ndx2, e);
    return true;
  }
  if (op.type == "ArraySwap") {
    if (op.ndx < 0 || op.ndx >= n || op.ndx2 < 0 || op.ndx2 >= n) {
      return false;
    }
    std::swap((*array)[op.ndx], (*array)[op.ndx2]);
    return true;
  }
  if (op.type == "ArrayErase") {
    if (op.ndx < 0 || op.ndx >= n) return false;
    array->erase(array->begin() + op.ndx);
    return true;
  }
  if (op.type == "ArrayClear") {
    array->clear();
    return true;
  }
  return false;
}

std::vector<int64_t> ArrayFromValue(const Value& v) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < v.size(); ++i) out.push_back(v.at(i).int_value());
  return out;
}

Value ArrayToValue(const std::vector<int64_t>& a) {
  std::vector<Value> elems;
  for (int64_t x : a) elems.push_back(Value::Int(x));
  return Value::Seq(std::move(elems));
}

std::vector<SpecOp> OpsFromValueSeq(const Value& seq, size_t from) {
  std::vector<SpecOp> out;
  for (size_t i = from; i < seq.size(); ++i) {
    out.push_back(FromValue(seq.at(i)));
  }
  return out;
}

}  // namespace

Value ArrayOtSpec::MakeOp(const std::string& type, int64_t ndx, int64_t ndx2,
                          int64_t val, int client) {
  return ToValue(SpecOp{type, ndx, ndx2, val, client});
}

std::vector<Value> ArrayOtSpec::EnumerateOps(int64_t array_len, int client,
                                             bool include_swap) {
  std::vector<Value> ops;
  // Values written by a client are distinctive (client*100 + position).
  for (int64_t i = 0; i < array_len; ++i) {
    ops.push_back(MakeOp("ArraySet", i, 0, client * 100 + i, client));
  }
  for (int64_t i = 0; i <= array_len; ++i) {
    ops.push_back(MakeOp("ArrayInsert", i, 0, client * 100 + 50 + i, client));
  }
  for (int64_t f = 0; f < array_len; ++f) {
    for (int64_t t = 0; t < array_len; ++t) {
      if (f != t) ops.push_back(MakeOp("ArrayMove", f, t, 0, client));
    }
  }
  if (include_swap) {
    for (int64_t x = 0; x < array_len; ++x) {
      for (int64_t y = x + 1; y < array_len; ++y) {
        ops.push_back(MakeOp("ArraySwap", x, y, 0, client));
      }
    }
  }
  for (int64_t i = 0; i < array_len; ++i) {
    ops.push_back(MakeOp("ArrayErase", i, 0, 0, client));
  }
  ops.push_back(MakeOp("ArrayClear", 0, 0, 0, client));
  return ops;
}

ArrayOtSpec::ArrayOtSpec(const ArrayOtConfig& config)
    : config_(config),
      variables_{"serverLog",  "clientLog", "clientState",
                 "serverState", "progress",  "appliedOps",
                 "opsDone",     "mergeStep", "err"} {
  BuildActions();
  BuildInvariants();
}

std::vector<State> ArrayOtSpec::InitialStates() const {
  std::vector<int64_t> initial;
  for (int64_t i = 0; i < config_.initial_array_len; ++i) {
    initial.push_back(i + 1);  // The paper's fixture uses {1, 2, 3}.
  }
  Value init_array = ArrayToValue(initial);
  std::vector<Value> empty_logs(config_.num_clients, Value::EmptySeq());
  std::vector<Value> states(config_.num_clients, init_array);
  std::vector<Value> progress(
      config_.num_clients,
      Value::Record({{"serverVersion", Value::Int(0)},
                     {"clientVersion", Value::Int(0)}}));
  return {State({
      Value::EmptySeq(),                  // serverLog
      Value::Seq(empty_logs),             // clientLog
      Value::Seq(states),                 // clientState
      init_array,                         // serverState
      Value::Seq(progress),               // progress
      Value::Seq(std::vector<Value>(config_.num_clients,
                                    Value::EmptySeq())),  // appliedOps
      Value::Int(0),                      // opsDone
      Value::Int(0),                      // mergeStep
      Value::Bool(false),                 // err
  })};
}

std::vector<tlax::DomainDecl> ArrayOtSpec::DeclaredDomains() const {
  // Only the scheduling scaffolding has closed-form domains; the log and
  // array variables depend on the operation menu and are left to the
  // abstract-domain probe's observation.
  return {
      {"opsDone", static_cast<double>(config_.num_clients + 1)},
      {"mergeStep", static_cast<double>(2 * config_.num_clients)},
      {"err", 2.0},
  };
}

void ArrayOtSpec::BuildActions() {
  const ArrayOtConfig config = config_;

  // ClientOp: the next client (ascending order, §5.1.2) performs one
  // operation from the menu against its local state.
  actions_.push_back(Action{
      "ClientOp", [config](const State& s, std::vector<State>* out) {
        if (s.var(kErr).bool_value()) return;
        int64_t done = s.var(kOpsDone).int_value();
        if (done >= config.num_clients) return;
        int client = static_cast<int>(done) + 1;  // 1-based.
        std::vector<int64_t> my_state =
            ArrayFromValue(s.var(kClientState).at(client - 1));
        for (Value& op_value : EnumerateOps(config.initial_array_len, client,
                                            config.include_swap)) {
          const SpecOp op = FromValue(op_value);
          std::vector<int64_t> next_array = my_state;
          if (!ApplySpecOp(op, &next_array)) continue;
          State next = s.With(
              kClientState,
              s.var(kClientState)
                  .WithIndex1(client, ArrayToValue(next_array)));
          next = next.With(
              kClientLog,
              next.var(kClientLog)
                  .WithIndex1(client, next.var(kClientLog)
                                          .Index1(client)
                                          .Append(op_value)));
          next = next.With(kOpsDone, Value::Int(done + 1));
          out->push_back(std::move(next));
        }
      },
      Footprint{{"err", "opsDone", "clientState", "clientLog"},
                {"clientState", "clientLog", "opsDone"}}});

  // MergeAction: once every client performed its operation, clients merge
  // with the server in a fixed ascending schedule: 1..C, then 1..C-1
  // (after which everyone has everything).
  actions_.push_back(Action{
      "MergeAction", [config](const State& s, std::vector<State>* out) {
        if (s.var(kErr).bool_value()) return;
        if (s.var(kOpsDone).int_value() < config.num_clients) return;
        int64_t step = s.var(kMergeStep).int_value();
        const int64_t total_steps = 2 * config.num_clients - 1;
        if (step >= total_steps) return;
        int client = static_cast<int>(step % config.num_clients) + 1;
        if (config.merge_descending) {
          client = config.num_clients + 1 - client;
        }

        const Value& progress = s.var(kProgress).Index1(client);
        size_t sv = static_cast<size_t>(
            progress.FieldOrDie("serverVersion").int_value());
        size_t cv = static_cast<size_t>(
            progress.FieldOrDie("clientVersion").int_value());

        std::vector<SpecOp> server_tail =
            OpsFromValueSeq(s.var(kServerLog), sv);
        std::vector<SpecOp> client_tail =
            OpsFromValueSeq(s.var(kClientLog).Index1(client), cv);

        TranscriptionFlags flags;
        flags.swap_move_bug = config.swap_move_bug;
        flags.inject_transcription_error =
            config.inject_transcription_error;
        flags.max_depth = config.max_merge_depth;
        bool err = false;
        SpecPair merged =
            TransformLists(server_tail, client_tail, flags, 0, &err);
        if (err) {
          out->push_back(s.With(kErr, Value::Bool(true)));
          return;
        }

        // Client applies the transformed server ops.
        std::vector<int64_t> client_array =
            ArrayFromValue(s.var(kClientState).Index1(client));
        Value client_log = s.var(kClientLog).Index1(client);
        Value applied = s.var(kAppliedOps).Index1(client);
        for (const SpecOp& op : merged.left) {
          if (!ApplySpecOp(op, &client_array)) {
            // A transcription error surfaces as an inapplicable op.
            out->push_back(s.With(kErr, Value::Bool(true)));
            return;
          }
          const Value record = ToValue(op);
          client_log = client_log.Append(record);
          applied = applied.Append(record);
        }
        // Server applies the transformed client ops.
        std::vector<int64_t> server_array =
            ArrayFromValue(s.var(kServerState));
        Value server_log = s.var(kServerLog);
        for (const SpecOp& op : merged.right) {
          if (!ApplySpecOp(op, &server_array)) {
            out->push_back(s.With(kErr, Value::Bool(true)));
            return;
          }
          server_log = server_log.Append(ToValue(op));
        }

        State next = s.With(kServerLog, server_log);
        next = next.With(
            kClientLog,
            next.var(kClientLog).WithIndex1(client, client_log));
        next = next.With(
            kClientState,
            next.var(kClientState)
                .WithIndex1(client, ArrayToValue(client_array)));
        next = next.With(kServerState, ArrayToValue(server_array));
        next = next.With(
            kAppliedOps,
            next.var(kAppliedOps).WithIndex1(client, applied));
        next = next.With(
            kProgress,
            next.var(kProgress)
                .WithIndex1(
                    client,
                    Value::Record(
                        {{"serverVersion",
                          Value::Int(static_cast<int64_t>(
                              server_log.size()))},
                         {"clientVersion",
                          Value::Int(static_cast<int64_t>(
                              client_log.size()))}})));
        next = next.With(kMergeStep, Value::Int(step + 1));
        out->push_back(std::move(next));
      },
      Footprint{{"serverLog", "clientLog", "clientState", "serverState",
                 "progress", "appliedOps", "opsDone", "mergeStep", "err"},
                {"serverLog", "clientLog", "clientState", "serverState",
                 "progress", "appliedOps", "mergeStep", "err"}}});
}

void ArrayOtSpec::BuildInvariants() {
  const ArrayOtConfig config = config_;

  // Paper Figure 6.
  invariants_.push_back(Invariant{
      "HaveUnmergedChangesOrAreConsistent", [config](const State& s) {
        if (s.var(kErr).bool_value()) return true;  // Handled below.
        // \E c \in Client : Unmerged(c) /= Pair(<<>>, <<>>)
        for (int client = 1; client <= config.num_clients; ++client) {
          const Value& progress = s.var(kProgress).Index1(client);
          int64_t sv = progress.FieldOrDie("serverVersion").int_value();
          int64_t cv = progress.FieldOrDie("clientVersion").int_value();
          if (sv < static_cast<int64_t>(s.var(kServerLog).size()) ||
              cv < static_cast<int64_t>(
                       s.var(kClientLog).Index1(client).size())) {
            return true;
          }
        }
        // \A c1, c2 \in Client : clientState[c1] = clientState[c2]
        // (and both match the server).
        for (int client = 1; client <= config.num_clients; ++client) {
          if (s.var(kClientState).Index1(client) != s.var(kServerState)) {
            return false;
          }
        }
        return true;
      },
      {{"err", "progress", "serverLog", "clientLog", "clientState",
        "serverState"}}});

  // The TLC StackOverflowError analogue: the transcribed merge terminated.
  invariants_.push_back(Invariant{
      "MergeTerminates",
      [](const State& s) { return !s.var(kErr).bool_value(); },
      {{"err"}}});
}

}  // namespace xmodel::specs
