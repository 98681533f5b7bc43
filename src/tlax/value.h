#ifndef XMODEL_TLAX_VALUE_H_
#define XMODEL_TLAX_VALUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace xmodel::tlax {

class Value;

namespace internal {

struct ValueRep;

/// A sequence rep's link to the canonical rep of its prefix minus the last
/// element (see Value::Prefix). Set at most once, then read-only. A copy
/// starts unset: only the rep in the intern table is ever linked, never
/// the probe it was copied or moved from.
struct PrefixLink {
  PrefixLink() = default;
  PrefixLink(const PrefixLink&) {}
  PrefixLink& operator=(const PrefixLink&) = delete;
  std::atomic<const ValueRep*> rep{nullptr};
};

/// Heap representation of a composite value (sequence, set, record, or a
/// string longer than the inline limit). A rep created outside any
/// Value::InternScope is owned by the process-wide intern table and lives
/// until process exit; one created inside a scope is owned by its thread's
/// scope table and is freed when that thread's outermost scope closes.
/// Either way a Value holding one is a plain pointer — trivially copyable,
/// never refcounted. See DESIGN.md "Value representation & interning".
struct ValueRep {
  uint64_t hash = 0;
  uint8_t kind = 0;                 // Value::Kind, stored raw.
  uint8_t scoped = 0;               // 1: owned by a thread's InternScope.
  std::string s;                    // kString (inline limit exceeded).
  std::vector<Value> elems;         // kSeq / kSet.
  std::vector<std::pair<std::string, Value>> fields;  // kRecord.
  mutable PrefixLink prefix;        // kSeq.
};

/// TEST-ONLY: while any instance is alive, composite hashing collapses to
/// a per-kind constant, so every sequence (set, record) collides in the
/// intern table and equality must fall back to structural comparison.
/// Values built inside the weak window hash differently from structurally
/// equal values built outside it, so tests must only compare values
/// created under the same hashing regime (use distinctive contents).
class ScopedWeakCompositeHashForTesting {
 public:
  ScopedWeakCompositeHashForTesting();
  ~ScopedWeakCompositeHashForTesting();
  ScopedWeakCompositeHashForTesting(
      const ScopedWeakCompositeHashForTesting&) = delete;
  ScopedWeakCompositeHashForTesting& operator=(
      const ScopedWeakCompositeHashForTesting&) = delete;
};

}  // namespace internal

/// An immutable TLA+-style value: nil, boolean, integer, string, sequence
/// (tuple), set, or record (function with string domain).
///
/// Representation: a 16-byte trivially copyable tagged value. Nil,
/// booleans, integers, and strings of at most kSmallStrMax bytes live
/// inline with zero allocation; sequences, sets, records, and longer
/// strings are hash-consed through a sharded, thread-safe intern table so
/// structurally equal composites share one `internal::ValueRep`. That
/// makes copying a Value a 16-byte store, `operator==` a pointer/payload
/// compare with a structural fallback only on a genuine 64-bit hash
/// collision, and `hash()` either a few arithmetic ops (inline values) or
/// a memoized load (interned values).
///
/// Sets are normalized (sorted, deduplicated) and records have sorted
/// field names, so structural equality coincides with semantic equality.
class Value {
 public:
  enum class Kind : uint8_t {
    kNil = 0,
    kBool,
    kInt,
    kString,
    kSeq,
    kSet,
    kRecord,
  };

  using Fields = std::vector<std::pair<std::string, Value>>;

  /// Longest string stored inline (no allocation, no interning).
  static constexpr size_t kSmallStrMax = 15;

  /// Constructs nil. Nil renders as "NULL" in TLA output (as in the
  /// paper's Figure 4 trace tuples).
  Value() { store_.small.tag = kTagNil; }

  static Value Nil() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.store_.small.tag = b ? kTagTrue : kTagFalse;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.store_.num.tag = kTagInt;
    v.store_.num.i = i;
    return v;
  }
  static Value Str(std::string s);
  static Value Str(std::string_view s);
  static Value Str(const char* s) { return Str(std::string_view(s)); }
  /// A sequence (TLA tuple) <<...>>.
  static Value Seq(std::vector<Value> elements);
  /// An empty sequence <<>>.
  static Value EmptySeq() { return Seq({}); }
  /// A set {...}; elements are sorted and deduplicated.
  static Value SetOf(std::vector<Value> elements);
  /// A record [k1 |-> v1, ...]; fields are sorted by name. Duplicate field
  /// names are not allowed.
  static Value Record(Fields fields);

  Kind kind() const {
    const uint8_t t = store_.small.tag;
    if (t >= kTagSmallStr) return Kind::kString;
    if (t == kTagInterned) return static_cast<Kind>(store_.ptr.rep->kind);
    switch (t) {
      case kTagNil:
        return Kind::kNil;
      case kTagFalse:
      case kTagTrue:
        return Kind::kBool;
      default:
        return Kind::kInt;
    }
  }
  bool is_nil() const { return store_.small.tag == kTagNil; }
  bool is_bool() const {
    return store_.small.tag == kTagFalse || store_.small.tag == kTagTrue;
  }
  bool is_int() const { return store_.small.tag == kTagInt; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_seq() const { return kind() == Kind::kSeq; }
  bool is_set() const { return kind() == Kind::kSet; }
  bool is_record() const { return kind() == Kind::kRecord; }

  bool bool_value() const {
    assert(is_bool());
    return store_.small.tag == kTagTrue;
  }
  int64_t int_value() const {
    assert(is_int());
    return store_.num.i;
  }
  /// The string's bytes. The view is valid as long as this Value (for
  /// inline short strings) or its rep (for interned long strings: the
  /// process, or the enclosing InternScope for a scoped rep) lives.
  std::string_view string_value() const {
    const uint8_t t = store_.small.tag;
    if (t >= kTagSmallStr) {
      return std::string_view(store_.small.data,
                              static_cast<size_t>(t - kTagSmallStr));
    }
    assert(t == kTagInterned && is_string());
    return store_.ptr.rep->s;
  }
  /// Elements of a sequence or set.
  const std::vector<Value>& elements() const {
    assert(is_seq() || is_set());
    return store_.ptr.rep->elems;
  }
  const Fields& fields() const {
    assert(is_record());
    return store_.ptr.rep->fields;
  }

  /// Sequence/set length, record field count, string byte length.
  size_t size() const;

  /// 0-based element access for sequences. (TLA+ is 1-based; the 1-based
  /// accessor is `Index1`.)
  const Value& at(size_t i) const {
    assert((is_seq() || is_set()) && i < store_.ptr.rep->elems.size());
    return store_.ptr.rep->elems[i];
  }
  /// 1-based element access matching TLA+ `seq[i]`.
  const Value& Index1(size_t i) const { return at(i - 1); }

  /// Record field lookup (binary search over the sorted field vector);
  /// nullptr when absent.
  const Value* Field(std::string_view name) const;
  /// Record field lookup; aborts when absent.
  const Value& FieldOrDie(std::string_view name) const;

  // -- Functional updates (all return new values) ---------------------------

  /// TLA+ `[rec EXCEPT !.name = v]`. The field must already exist; found by
  /// binary search, not a linear scan.
  Value WithField(std::string_view name, Value v) const;
  /// Appends to a sequence.
  Value Append(Value v) const;
  /// Concatenates two sequences (TLA+ `\o`).
  Value Concat(const Value& other) const;
  /// TLA+ SubSeq(seq, from, to) with 1-based inclusive bounds; empty when
  /// from > to.
  Value SubSeq(size_t from1, size_t to1) const;
  /// A non-empty sequence minus its last element: the same value, and the
  /// same interned rep, as SubSeq(1, size() - 1). O(1) once the rep is
  /// linked to its prefix: Append links its result for free, and a rep
  /// without a link computes the prefix once with SubSeq and keeps it. A
  /// global rep never keeps a scoped prefix, so inside an InternScope it
  /// recomputes one that exists only in the scope.
  Value Prefix() const;
  /// Sequence with 1-based index `i` replaced by `v`.
  Value WithIndex1(size_t i, Value v) const;
  /// Set with `v` inserted: splices at the lower-bound position (no
  /// re-sort). Returns *this unchanged (sharing the same interned rep)
  /// when `v` is already a member.
  Value SetInsert(Value v) const;
  /// True for sets: membership test.
  bool SetContains(const Value& v) const;

  /// Structural 64-bit hash: memoized in the rep for interned composites,
  /// computed in a few arithmetic ops for inline values.
  uint64_t hash() const {
    const uint8_t t = store_.small.tag;
    if (t == kTagInterned) return store_.ptr.rep->hash;
    return InlineHash();
  }

  bool operator==(const Value& other) const {
    if (store_.small.tag != other.store_.small.tag) return false;
    const uint8_t t = store_.small.tag;
    if (t == kTagInterned) {
      if (store_.ptr.rep == other.store_.ptr.rep) return true;
      // Distinct interned reps are structurally distinct by construction;
      // unequal hashes prove it cheaply, equal hashes (a genuine 64-bit
      // collision in the intern table) fall back to a structural walk.
      if (store_.ptr.rep->hash != other.store_.ptr.rep->hash) return false;
      return Compare(*this, other) == 0;
    }
    if (t >= kTagSmallStr) {
      return std::memcmp(store_.small.data, other.store_.small.data,
                         static_cast<size_t>(t - kTagSmallStr)) == 0;
    }
    if (t == kTagInt) return store_.num.i == other.store_.num.i;
    return true;  // Nil / bool: the tag is the whole payload.
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Total order used for set normalization (kind-major, then content).
  bool operator<(const Value& other) const {
    return Compare(*this, other) < 0;
  }

  /// Renders the value in TLA+ syntax: <<1, "a">>, [x |-> 2], {1, 2}, NULL.
  std::string ToTla() const;

  /// Three-way structural comparison: -1, 0, or 1.
  static int Compare(const Value& a, const Value& b);

  // -- Interning introspection (tests, benches, telemetry) ------------------

  /// True when the value is stored inline (no heap, no intern table).
  bool is_inline() const { return store_.small.tag != kTagInterned; }
  /// The interned rep's identity, or nullptr for inline values. Outside
  /// any InternScope, two structurally equal composites report the same
  /// identity. A thread inside a scope may hold a private rep and, once
  /// another thread interns the same structure globally, the global one
  /// too: equal values then differ in identity, never in ==, hash() or
  /// Compare.
  const void* interned_rep() const {
    return is_inline() ? nullptr : store_.ptr.rep;
  }
  /// True when the rep was created inside an InternScope, so it is freed
  /// when its thread's outermost scope closes. A cache that outlives the
  /// scope must not keep such a value or its rep address.
  bool is_scoped() const {
    return !is_inline() && store_.ptr.rep->scoped != 0;
  }

  /// Frees, at its close, every rep its thread creates while it is open.
  ///
  /// While a scope is open on a thread, an intern request of that thread
  /// that no global rep satisfies creates the rep in a private table owned
  /// by the thread (no lock; no other thread ever sees it) instead of the
  /// global table. Lookups still find global reps first, so values that
  /// exist before the scope are shared, not copied. Closing the outermost
  /// scope of a thread frees every private rep, takes them off `live` and
  /// `bytes` in InternStats, and clears the thread's intern cache; a
  /// nested scope frees nothing at its close.
  ///
  /// Nothing built inside a scope may be used after it closes: not a
  /// Value, not a State holding one, not a string_view into a long string.
  /// A global sequence is never linked to a scoped prefix (see Prefix).
  class InternScope {
   public:
    InternScope();
    ~InternScope();
    InternScope(const InternScope&) = delete;
    InternScope& operator=(const InternScope&) = delete;
  };

  /// Point-in-time totals of the intern tables. `hits` and `misses` count
  /// intern requests (a miss allocates a new rep); `live` is the number of
  /// reps currently allocated, global and scoped, and `bytes` their
  /// accounted footprint (struct + owned heap payloads, capacity-based).
  /// Published by the checker as the `value.intern.*` gauge family.
  struct InternStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t live = 0;
    uint64_t bytes = 0;
  };
  static InternStats GetInternStats();

 private:
  // Tag encoding: byte 0 of the 16-byte value. 0x10 + len (len <= 15)
  // marks an inline string so the remaining 15 bytes are all payload.
  static constexpr uint8_t kTagNil = 0;
  static constexpr uint8_t kTagFalse = 1;
  static constexpr uint8_t kTagTrue = 2;
  static constexpr uint8_t kTagInt = 3;
  static constexpr uint8_t kTagInterned = 4;
  static constexpr uint8_t kTagSmallStr = 0x10;

  // All three overlays lead with the tag byte (a common initial sequence,
  // so reading the tag through any member is well-defined); the int and
  // pointer payloads sit at offset 8, naturally aligned.
  union Storage {
    struct {
      uint8_t tag;
      char data[15];
    } small;
    struct {
      uint8_t tag;
      int64_t i;
    } num;
    struct {
      uint8_t tag;
      const internal::ValueRep* rep;
    } ptr;
  };
  static_assert(sizeof(Storage) == 16, "Value must stay a 16-byte word pair");

  explicit Value(const internal::ValueRep* rep) {
    store_.ptr.tag = kTagInterned;
    store_.ptr.rep = rep;
  }

  uint64_t InlineHash() const;

  /// Hash-consing entry point: returns the canonical rep for `rep`'s
  /// contents, allocating (and registering) one only when no structurally
  /// equal rep exists. `rep.hash` must already be set.
  static const internal::ValueRep* Intern(internal::ValueRep&& rep);
  /// Same, but `probe` is only copied on a miss — the zero-allocation path
  /// for functional updates, which stage candidates in a reusable
  /// thread-local rep instead of a fresh vector per successor.
  static const internal::ValueRep* InternCopy(const internal::ValueRep& probe);

  /// Builds a set from an already sorted, already deduplicated element
  /// vector (the SetInsert splice path).
  static Value SetFromSorted(std::vector<Value> elements);
  /// Builds a record from already sorted, duplicate-free fields (the
  /// WithField path).
  static Value RecordFromSorted(Fields fields);

  Storage store_;
};

/// Convenience builders used pervasively by specs.
inline Value VInt(int64_t i) { return Value::Int(i); }
inline Value VStr(std::string s) { return Value::Str(std::move(s)); }
inline Value VBool(bool b) { return Value::Bool(b); }

namespace internal {
/// Per-kind seed of every structural value hash; shared by the inline
/// fast path below and the composite hasher in value.cc so storage class
/// never changes a value's hash.
inline constexpr uint64_t kValueKindHashSalt = 0x51ed2701;
}  // namespace internal

inline uint64_t Value::InlineHash() const {
  const uint8_t t = store_.small.tag;
  if (t >= kTagSmallStr) {
    const uint64_t h = common::Mix64(static_cast<uint64_t>(Kind::kString) +
                                     internal::kValueKindHashSalt);
    return common::HashCombine(
        h, common::HashString(std::string_view(
               store_.small.data, static_cast<size_t>(t - kTagSmallStr))));
  }
  switch (t) {
    case kTagNil:
      return common::Mix64(static_cast<uint64_t>(Kind::kNil) +
                           internal::kValueKindHashSalt);
    case kTagFalse:
    case kTagTrue: {
      const uint64_t h = common::Mix64(static_cast<uint64_t>(Kind::kBool) +
                                       internal::kValueKindHashSalt);
      return common::HashCombine(h, t == kTagTrue ? 2 : 1);
    }
    default: {
      const uint64_t h = common::Mix64(static_cast<uint64_t>(Kind::kInt) +
                                       internal::kValueKindHashSalt);
      return common::HashCombine(
          h, common::Mix64(static_cast<uint64_t>(store_.num.i)));
    }
  }
}

inline size_t Value::size() const {
  const uint8_t t = store_.small.tag;
  if (t >= kTagSmallStr) return static_cast<size_t>(t - kTagSmallStr);
  assert(t == kTagInterned);
  const internal::ValueRep* rep = store_.ptr.rep;
  switch (static_cast<Kind>(rep->kind)) {
    case Kind::kString:
      return rep->s.size();
    case Kind::kRecord:
      return rep->fields.size();
    default:
      return rep->elems.size();
  }
}

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_VALUE_H_
