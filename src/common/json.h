#ifndef XMODEL_COMMON_JSON_H_
#define XMODEL_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace xmodel::common {

/// A small JSON document model for the metrics export, event log, span
/// trace and checkpoint manifest. Objects preserve insertion order so
/// emitted documents are stable and diffable. Trace-event log lines skip
/// the tree: they are read with JsonCursor below and written with
/// AppendJsonString / AppendJsonInt.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t i);
  static Json Double(double d);
  static Json Str(std::string s);
  static Json MakeArray();
  static Json MakeObject();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const;
  int64_t int_value() const;
  double double_value() const;
  const std::string& string_value() const;
  const Array& array() const;
  Array& array();
  const Members& members() const;

  /// Appends to an array value.
  void Append(Json v);

  /// Sets (or replaces) an object member.
  void Set(std::string key, Json v);

  /// Returns the member value, or nullptr when absent / not an object.
  const Json* Find(std::string_view key) const;

  /// Compact single-line serialization.
  std::string Dump() const;

  /// Parses one JSON document; trailing whitespace is allowed.
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void AppendTo(std::string* out) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Members members_;
};

/// Escapes `s` per JSON string rules and wraps it in quotes.
std::string JsonEscape(std::string_view s);

/// Appends JsonEscape(s) to `*out`.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends the decimal form of `i` to `*out`.
void AppendJsonInt(std::string* out, int64_t i);

/// A pull cursor over one JSON text: the grammar Json::Parse builds its
/// tree with, exposed token by token so that a reader of a fixed schema
/// (trace/trace_event.cc) decodes a document in one pass without a tree.
///
/// Every read skips leading whitespace. A failed read records the first
/// error (kCorruption naming the byte offset) in status() and returns
/// false; from then on every call returns false, so a reader may chain
/// calls with && and report status() once.
class JsonCursor {
 public:
  /// Arrays and objects nested deeper than this are rejected rather than
  /// read by unbounded recursion.
  static constexpr int kMaxDepth = 256;

  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Consumes `c` when it is the next token; false (and no error) if not.
  bool Consume(char c);
  /// Consumes `c`, or fails.
  bool Expect(char c);
  /// Consumes the literal `null` when it is next; false (and no error) if
  /// not.
  bool ConsumeNull();
  /// Reads a string literal, decoding its escapes. A null `out` skips it.
  bool ReadString(std::string* out);
  /// Reads an integer literal. A fraction, an exponent or a value outside
  /// int64 fails; nothing is rounded or saturated.
  bool ReadInt(int64_t* out);
  /// Reads `true` or `false`.
  bool ReadBool(bool* out);
  /// Reads any value into `*out`. A null `out` skips the value, checking
  /// the same grammar.
  bool ReadValue(Json* out) { return ReadValue(out, 0); }
  /// Reads an array, calling `element()` at each element; `element` must
  /// read exactly one value and return whether it succeeded.
  template <typename ElementFn>
  bool ReadArray(ElementFn&& element);
  /// Reads an object, calling `member(key)` after each key and its ':';
  /// `member` must read exactly one value (ReadValue(nullptr) skips it)
  /// and return whether it succeeded.
  template <typename MemberFn>
  bool ReadObject(MemberFn&& member);
  /// Fails unless only whitespace remains.
  bool ExpectEnd();

  /// Records "<what> at offset <n>" as the error, unless one is already
  /// recorded, and returns false.
  bool Fail(std::string_view what);

  const Status& status() const { return status_; }

 private:
  void SkipWhitespace();
  bool ReadValue(Json* out, int depth);
  /// Scans one number token, checking its grammar only.
  bool ScanNumber(std::string_view* token, bool* is_int);

  std::string_view text_;
  size_t pos_ = 0;
  Status status_;
};

template <typename ElementFn>
bool JsonCursor::ReadArray(ElementFn&& element) {
  if (!Expect('[')) return false;
  if (Consume(']')) return true;
  do {
    if (!element()) return Fail("bad array element");
  } while (Consume(','));
  return Expect(']');
}

template <typename MemberFn>
bool JsonCursor::ReadObject(MemberFn&& member) {
  if (!Expect('{')) return false;
  if (Consume('}')) return true;
  std::string key;
  do {
    if (!ReadString(&key) || !Expect(':')) return false;
    if (!member(std::string_view(key))) return Fail("bad member value");
  } while (Consume(','));
  return Expect('}');
}

}  // namespace xmodel::common

#endif  // XMODEL_COMMON_JSON_H_
