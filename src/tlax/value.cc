#include "tlax/value.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <unordered_map>

#include "common/strings.h"

namespace xmodel::tlax {

using common::HashCombine;
using common::HashString;
using common::Mix64;
using internal::ValueRep;

namespace {

// TEST-ONLY weak-hash switch (see ScopedWeakCompositeHashForTesting).
std::atomic<int> g_weak_composite_hash{0};

uint64_t KindSeed(Value::Kind kind) {
  return Mix64(static_cast<uint64_t>(kind) + internal::kValueKindHashSalt);
}

// Structural hash of a composite rep. Children are already hashed (inline
// or memoized), so this is O(#children), not O(subtree). Must agree with
// Value::InlineHash for kString so a string's hash never depends on
// whether it was short enough to inline.
uint64_t ComputeHash(const ValueRep& rep) {
  const auto kind = static_cast<Value::Kind>(rep.kind);
  uint64_t h = KindSeed(kind);
  switch (kind) {
    case Value::Kind::kString:
      return HashCombine(h, HashString(rep.s));
    case Value::Kind::kSeq:
    case Value::Kind::kSet:
      if (g_weak_composite_hash.load(std::memory_order_relaxed) != 0) {
        return h;  // Every seq (set) collides: exercises the fallback.
      }
      for (const Value& v : rep.elems) h = HashCombine(h, v.hash());
      return HashCombine(h, rep.elems.size());
    case Value::Kind::kRecord:
      if (g_weak_composite_hash.load(std::memory_order_relaxed) != 0) {
        return h;
      }
      for (const auto& [name, v] : rep.fields) {
        h = HashCombine(h, HashString(name));
        h = HashCombine(h, v.hash());
      }
      return h;
    default:
      return h;  // Scalars never reach the intern table.
  }
}

// Structural equality of two reps of the same hash. Children compare
// through Value::operator==, which is a pointer/payload compare for
// already-canonical children — so this walk is one level deep in the
// common case.
bool RepEquals(const ValueRep& a, const ValueRep& b) {
  if (a.kind != b.kind) return false;
  switch (static_cast<Value::Kind>(a.kind)) {
    case Value::Kind::kString:
      return a.s == b.s;
    case Value::Kind::kRecord: {
      if (a.fields.size() != b.fields.size()) return false;
      for (size_t i = 0; i < a.fields.size(); ++i) {
        if (a.fields[i].first != b.fields[i].first ||
            a.fields[i].second != b.fields[i].second) {
          return false;
        }
      }
      return true;
    }
    default:
      return a.elems == b.elems;
  }
}

// Accounted footprint of an interned rep: the struct plus every heap
// payload it owns, capacity-based (what the allocator actually holds, not
// just what is in use). Approximate by design — feeds the
// value.intern.bytes gauge, not an allocator.
uint64_t RepBytes(const ValueRep& rep) {
  uint64_t bytes = sizeof(ValueRep);
  if (rep.s.capacity() > sizeof(std::string)) bytes += rep.s.capacity() + 1;
  bytes += rep.elems.capacity() * sizeof(Value);
  bytes += rep.fields.capacity() * sizeof(rep.fields[0]);
  for (const auto& [name, v] : rep.fields) {
    (void)v;
    if (name.capacity() > sizeof(std::string)) bytes += name.capacity() + 1;
  }
  return bytes;
}

// The process-wide intern table: shards selected by the rep hash's top
// bits, each a mutex plus a hash -> rep multimap (a multimap, not a map,
// so two structurally distinct reps colliding on the full 64-bit hash can
// coexist — the collision policy is "both live, equality falls back to a
// structural walk"). Global reps are never freed: a model-checking run's
// distinct value universe is bounded by the explored state space, and
// permanent reps are what make Value trivially copyable with no refcount
// traffic. Work whose values all die with it (a trace check) opens a
// Value::InternScope instead, whose reps are freed at its close.
using RepsByHash = std::unordered_multimap<uint64_t, const ValueRep*>;

struct InternShard {
  std::mutex mu;
  RepsByHash by_hash;
};

constexpr size_t kInternShards = 64;  // Power of two.

// One thread's intern hit count. Hits are the hot path (most lookups end
// in the thread cache), so each thread counts into its own block instead
// of bouncing one shared cache line between checker workers. A block is
// linked into the table once and never freed, so GetInternStats still
// counts the hits of threads that have exited.
struct alignas(64) HitCounter {
  std::atomic<uint64_t> hits{0};
  HitCounter* next = nullptr;
};

struct InternTable {
  InternShard shards[kInternShards];
  std::atomic<HitCounter*> hit_counters{nullptr};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> bytes{0};
};

InternTable& Table() {
  static InternTable* table = new InternTable();  // Never destroyed.
  return *table;
}

// Per-thread direct-mapped front cache over the shared table. Checker
// workers rebuild the same few composites (role vectors, oplog prefixes)
// over and over; a hit here returns the canonical rep with no lock and no
// multimap probe. Entries are global reps, which are permanent, or the
// thread's own scoped reps, which its outermost scope close clears from
// here before freeing them; so a stale slot is never a dangling pointer —
// at worst a miss.
constexpr size_t kThreadCacheSlots = 4096;  // Power of two.
thread_local const ValueRep* t_intern_cache[kThreadCacheSlots];
thread_local HitCounter* t_hit_counter = nullptr;

// The reps one thread created inside its open Value::InternScope, owned
// here until the outermost scope closes. Only the owning thread reads or
// writes it, so it takes no lock.
struct ScopeTable {
  int depth = 0;  // Open scopes, nested ones included.
  RepsByHash by_hash;
  uint64_t bytes = 0;  // RepBytes of every rep in `by_hash`.
};
thread_local ScopeTable* t_scope = nullptr;  // Null while no scope is open.

// Counts one hit in the calling thread's block, linking the block on the
// thread's first hit. Only the owner writes a block, so a plain
// load-and-store suffices; readers see every count once the thread is
// joined or, while it runs, a recent one.
void CountHit(InternTable& table) {
  HitCounter* counter = t_hit_counter;
  if (counter == nullptr) {
    counter = t_hit_counter = new HitCounter();  // Never freed.
    counter->next = table.hit_counters.load(std::memory_order_relaxed);
    while (!table.hit_counters.compare_exchange_weak(
        counter->next, counter, std::memory_order_release,
        std::memory_order_relaxed)) {
    }
  }
  counter->hits.store(counter->hits.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

}  // namespace

namespace internal {

ScopedWeakCompositeHashForTesting::ScopedWeakCompositeHashForTesting() {
  g_weak_composite_hash.fetch_add(1, std::memory_order_relaxed);
}

ScopedWeakCompositeHashForTesting::~ScopedWeakCompositeHashForTesting() {
  g_weak_composite_hash.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace internal

namespace {

// The rep in `by_hash` structurally equal to `probe`, or nullptr.
const ValueRep* FindEqual(const RepsByHash& by_hash, const ValueRep& probe) {
  auto [begin, end] = by_hash.equal_range(probe.hash);
  for (auto it = begin; it != end; ++it) {
    if (RepEquals(*it->second, probe)) return it->second;
  }
  return nullptr;
}

// Counts a freshly allocated rep in the table totals and returns its
// accounted bytes.
uint64_t CountMiss(InternTable& table, const ValueRep& fresh) {
  const uint64_t bytes = RepBytes(fresh);
  table.misses.fetch_add(1, std::memory_order_relaxed);
  table.live.fetch_add(1, std::memory_order_relaxed);
  table.bytes.fetch_add(bytes, std::memory_order_relaxed);
  return bytes;
}

// Shared lookup-or-insert. `materialize` builds the heap rep only on a
// miss. Outside a scope it runs under the shard lock, so a racing thread
// can never insert a structurally equal duplicate into the global table.
// Inside a scope a global miss falls through to the thread's own table,
// which needs no lock because no other thread ever reads it.
template <typename Materialize>
const ValueRep* InternImpl(const ValueRep& probe, Materialize materialize) {
  InternTable& table = Table();
  const size_t slot = probe.hash & (kThreadCacheSlots - 1);
  const ValueRep* cached = t_intern_cache[slot];
  if (cached != nullptr && cached->hash == probe.hash &&
      RepEquals(*cached, probe)) {
    CountHit(table);
    return cached;
  }
  InternShard& shard =
      table.shards[(probe.hash >> 58) & (kInternShards - 1)];
  ScopeTable* scope = t_scope;
  const ValueRep* canonical = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    canonical = FindEqual(shard.by_hash, probe);
    if (canonical == nullptr && scope == nullptr) {
      const ValueRep* fresh = materialize();
      shard.by_hash.emplace(fresh->hash, fresh);
      CountMiss(table, *fresh);
      t_intern_cache[slot] = fresh;
      return fresh;
    }
  }
  if (canonical == nullptr) canonical = FindEqual(scope->by_hash, probe);
  if (canonical == nullptr) {
    ValueRep* fresh = materialize();
    fresh->scoped = 1;
    scope->by_hash.emplace(fresh->hash, fresh);
    scope->bytes += CountMiss(table, *fresh);
    t_intern_cache[slot] = fresh;
    return fresh;
  }
  CountHit(table);
  t_intern_cache[slot] = canonical;
  return canonical;
}

// Reusable candidate rep for functional updates: its vectors keep their
// capacity across calls, so staging a successor composite allocates
// nothing when the result is already interned. Not reentrant — each
// staging function finishes its InternCopy before returning, and
// arguments are fully built Values, so no call ever nests inside another's
// staging window.
ValueRep& ProbeRep() {
  static thread_local ValueRep* probe = new ValueRep();  // Never destroyed.
  return *probe;
}

}  // namespace

const ValueRep* Value::Intern(ValueRep&& rep) {
  return InternImpl(rep, [&rep] { return new ValueRep(std::move(rep)); });
}

const ValueRep* Value::InternCopy(const ValueRep& probe) {
  return InternImpl(probe, [&probe] { return new ValueRep(probe); });
}

Value::InternScope::InternScope() {
  if (t_scope == nullptr) t_scope = new ScopeTable();
  ++t_scope->depth;
}

Value::InternScope::~InternScope() {
  if (--t_scope->depth > 0) return;
  // Clear the cache first: it may hold the reps freed below.
  std::fill(std::begin(t_intern_cache), std::end(t_intern_cache), nullptr);
  InternTable& table = Table();
  table.live.fetch_sub(t_scope->by_hash.size(), std::memory_order_relaxed);
  table.bytes.fetch_sub(t_scope->bytes, std::memory_order_relaxed);
  for (const auto& entry : t_scope->by_hash) delete entry.second;
  delete t_scope;
  t_scope = nullptr;
}

Value::InternStats Value::GetInternStats() {
  const InternTable& table = Table();
  InternStats stats;
  for (const HitCounter* counter =
           table.hit_counters.load(std::memory_order_acquire);
       counter != nullptr; counter = counter->next) {
    stats.hits += counter->hits.load(std::memory_order_relaxed);
  }
  stats.misses = table.misses.load(std::memory_order_relaxed);
  stats.live = table.live.load(std::memory_order_relaxed);
  stats.bytes = table.bytes.load(std::memory_order_relaxed);
  return stats;
}

Value Value::Str(std::string_view s) {
  if (s.size() <= kSmallStrMax) {
    Value v;
    v.store_.small.tag =
        static_cast<uint8_t>(kTagSmallStr + static_cast<uint8_t>(s.size()));
    std::memcpy(v.store_.small.data, s.data(), s.size());
    return v;
  }
  ValueRep rep;
  rep.kind = static_cast<uint8_t>(Kind::kString);
  rep.s.assign(s);
  rep.hash = ComputeHash(rep);
  return Value(Intern(std::move(rep)));
}

Value Value::Str(std::string s) {
  if (s.size() <= kSmallStrMax) return Str(std::string_view(s));
  ValueRep rep;
  rep.kind = static_cast<uint8_t>(Kind::kString);
  rep.s = std::move(s);
  rep.hash = ComputeHash(rep);
  return Value(Intern(std::move(rep)));
}

Value Value::Seq(std::vector<Value> elements) {
  ValueRep rep;
  rep.kind = static_cast<uint8_t>(Kind::kSeq);
  rep.elems = std::move(elements);
  rep.hash = ComputeHash(rep);
  return Value(Intern(std::move(rep)));
}

Value Value::SetOf(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  return SetFromSorted(std::move(elements));
}

Value Value::SetFromSorted(std::vector<Value> elements) {
  ValueRep rep;
  rep.kind = static_cast<uint8_t>(Kind::kSet);
  rep.elems = std::move(elements);
  rep.hash = ComputeHash(rep);
  return Value(Intern(std::move(rep)));
}

Value Value::Record(Fields fields) {
  std::sort(fields.begin(), fields.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 1; i < fields.size(); ++i) {
    assert(fields[i - 1].first != fields[i].first &&
           "duplicate record field");
    (void)i;
  }
  return RecordFromSorted(std::move(fields));
}

Value Value::RecordFromSorted(Fields fields) {
  ValueRep rep;
  rep.kind = static_cast<uint8_t>(Kind::kRecord);
  rep.fields = std::move(fields);
  rep.hash = ComputeHash(rep);
  return Value(Intern(std::move(rep)));
}

const Value* Value::Field(std::string_view name) const {
  if (!is_record()) return nullptr;
  // Fields are sorted; binary search.
  const Fields& fields = store_.ptr.rep->fields;
  auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const auto& field, std::string_view n) { return field.first < n; });
  if (it != fields.end() && it->first == name) return &it->second;
  return nullptr;
}

const Value& Value::FieldOrDie(std::string_view name) const {
  const Value* v = Field(name);
  if (v == nullptr) {
    std::fprintf(stderr, "FieldOrDie: no field %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *v;
}

namespace {

// Resets the thread-local probe rep to an empty composite of `kind`.
// Clearing the unused payloads keeps the canonical rep clean when a miss
// copies the probe verbatim.
ValueRep& StageProbe(Value::Kind kind) {
  ValueRep& probe = ProbeRep();
  probe.kind = static_cast<uint8_t>(kind);
  probe.s.clear();
  probe.elems.clear();
  probe.fields.clear();
  return probe;
}

// Records `prefix` as the link of `rep` unless it already has one, or
// unless `rep` is global and `prefix` scoped: the link would dangle once
// the scope closes, and other threads read global reps. Every writer
// stores a structurally equal rep, so the first store wins and later calls
// only load: a rep's cache line is written at most once, not on every
// intern hit. Release pairs with the acquire load in Value::Prefix.
void LinkPrefix(const ValueRep& rep, const ValueRep* prefix) {
  if (prefix->scoped > rep.scoped) return;
  if (rep.prefix.rep.load(std::memory_order_relaxed) == nullptr) {
    rep.prefix.rep.store(prefix, std::memory_order_release);
  }
}

}  // namespace

Value Value::WithField(std::string_view name, Value v) const {
  assert(is_record());
  ValueRep& probe = StageProbe(Kind::kRecord);
  const Fields& fields = store_.ptr.rep->fields;
  probe.fields.assign(fields.begin(), fields.end());
  auto it = std::lower_bound(
      probe.fields.begin(), probe.fields.end(), name,
      [](const auto& field, std::string_view n) { return field.first < n; });
  if (it == probe.fields.end() || it->first != name) {
    assert(false && "WithField: no such field");
    return *this;
  }
  it->second = std::move(v);
  probe.hash = ComputeHash(probe);
  return Value(InternCopy(probe));
}

Value Value::Append(Value v) const {
  assert(is_seq());
  const std::vector<Value>& elems = store_.ptr.rep->elems;
  ValueRep& probe = StageProbe(Kind::kSeq);
  probe.elems.reserve(elems.size() + 1);
  probe.elems.assign(elems.begin(), elems.end());
  probe.elems.push_back(std::move(v));
  probe.hash = ComputeHash(probe);
  const ValueRep* appended = InternCopy(probe);
  LinkPrefix(*appended, store_.ptr.rep);
  return Value(appended);
}

Value Value::Concat(const Value& other) const {
  assert(is_seq() && other.is_seq());
  const std::vector<Value>& mine = store_.ptr.rep->elems;
  const std::vector<Value>& theirs = other.store_.ptr.rep->elems;
  ValueRep& probe = StageProbe(Kind::kSeq);
  probe.elems.reserve(mine.size() + theirs.size());
  probe.elems.assign(mine.begin(), mine.end());
  probe.elems.insert(probe.elems.end(), theirs.begin(), theirs.end());
  probe.hash = ComputeHash(probe);
  return Value(InternCopy(probe));
}

Value Value::SubSeq(size_t from1, size_t to1) const {
  assert(is_seq());
  const std::vector<Value>& elems = store_.ptr.rep->elems;
  if (from1 > to1 || from1 > elems.size()) return EmptySeq();
  to1 = std::min(to1, elems.size());
  ValueRep& probe = StageProbe(Kind::kSeq);
  probe.elems.assign(elems.begin() + (from1 - 1), elems.begin() + to1);
  probe.hash = ComputeHash(probe);
  return Value(InternCopy(probe));
}

Value Value::Prefix() const {
  assert(is_seq() && size() > 0);
  const ValueRep* prefix =
      store_.ptr.rep->prefix.rep.load(std::memory_order_acquire);
  if (prefix == nullptr) {
    prefix = SubSeq(1, size() - 1).store_.ptr.rep;
    LinkPrefix(*store_.ptr.rep, prefix);
  }
  return Value(prefix);
}

Value Value::WithIndex1(size_t i, Value v) const {
  assert(is_seq() && i >= 1 && i <= store_.ptr.rep->elems.size());
  const std::vector<Value>& elems = store_.ptr.rep->elems;
  ValueRep& probe = StageProbe(Kind::kSeq);
  probe.elems.assign(elems.begin(), elems.end());
  probe.elems[i - 1] = std::move(v);
  probe.hash = ComputeHash(probe);
  return Value(InternCopy(probe));
}

Value Value::SetInsert(Value v) const {
  assert(is_set());
  const std::vector<Value>& elems = store_.ptr.rep->elems;
  auto it = std::lower_bound(elems.begin(), elems.end(), v);
  if (it != elems.end() && *it == v) return *this;  // Already a member.
  // Splice at the lower bound — the result stays sorted with no re-sort.
  ValueRep& probe = StageProbe(Kind::kSet);
  probe.elems.reserve(elems.size() + 1);
  probe.elems.assign(elems.begin(), it);
  probe.elems.push_back(std::move(v));
  probe.elems.insert(probe.elems.end(), it, elems.end());
  probe.hash = ComputeHash(probe);
  return Value(InternCopy(probe));
}

bool Value::SetContains(const Value& v) const {
  assert(is_set());
  const std::vector<Value>& elems = store_.ptr.rep->elems;
  return std::binary_search(elems.begin(), elems.end(), v);
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.store_.small.tag == kTagInterned &&
      b.store_.small.tag == kTagInterned &&
      a.store_.ptr.rep == b.store_.ptr.rep) {
    return 0;  // Hash-consing: shared rep means structurally identical.
  }
  const Kind ka = a.kind();
  const Kind kb = b.kind();
  if (ka != kb) return ka < kb ? -1 : 1;
  switch (ka) {
    case Kind::kNil:
      return 0;
    case Kind::kBool: {
      const bool ba = a.bool_value();
      const bool bb = b.bool_value();
      return ba == bb ? 0 : (ba ? 1 : -1);
    }
    case Kind::kInt: {
      const int64_t ia = a.int_value();
      const int64_t ib = b.int_value();
      return ia == ib ? 0 : (ia < ib ? -1 : 1);
    }
    case Kind::kString: {
      const int c = a.string_value().compare(b.string_value());
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
    case Kind::kSeq:
    case Kind::kSet: {
      const std::vector<Value>& ea = a.store_.ptr.rep->elems;
      const std::vector<Value>& eb = b.store_.ptr.rep->elems;
      const size_t n = std::min(ea.size(), eb.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = Compare(ea[i], eb[i]);
        if (c != 0) return c;
      }
      if (ea.size() == eb.size()) return 0;
      return ea.size() < eb.size() ? -1 : 1;
    }
    case Kind::kRecord: {
      const Fields& fa = a.store_.ptr.rep->fields;
      const Fields& fb = b.store_.ptr.rep->fields;
      const size_t n = std::min(fa.size(), fb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = fa[i].first.compare(fb[i].first);
        if (c != 0) return c < 0 ? -1 : 1;
        c = Compare(fa[i].second, fb[i].second);
        if (c != 0) return c;
      }
      if (fa.size() == fb.size()) return 0;
      return fa.size() < fb.size() ? -1 : 1;
    }
  }
  return 0;
}

namespace {

void AppendTla(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Value::Kind::kNil:
      out->append("NULL");
      return;
    case Value::Kind::kBool:
      out->append(v.bool_value() ? "TRUE" : "FALSE");
      return;
    case Value::Kind::kInt:
      out->append(common::StrCat(v.int_value()));
      return;
    case Value::Kind::kString:
      out->push_back('"');
      out->append(v.string_value());
      out->push_back('"');
      return;
    case Value::Kind::kSeq: {
      out->append("<<");
      const std::vector<Value>& elems = v.elements();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out->append(", ");
        AppendTla(elems[i], out);
      }
      out->append(">>");
      return;
    }
    case Value::Kind::kSet: {
      out->push_back('{');
      const std::vector<Value>& elems = v.elements();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out->append(", ");
        AppendTla(elems[i], out);
      }
      out->push_back('}');
      return;
    }
    case Value::Kind::kRecord: {
      out->push_back('[');
      const Value::Fields& fields = v.fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->append(", ");
        out->append(fields[i].first);
        out->append(" |-> ");
        AppendTla(fields[i].second, out);
      }
      out->push_back(']');
      return;
    }
  }
}

}  // namespace

std::string Value::ToTla() const {
  std::string out;
  AppendTla(*this, &out);
  return out;
}

}  // namespace xmodel::tlax
