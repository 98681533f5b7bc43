#include "common/json.h"

#include <cassert>
#include <charconv>
#include <cstdio>

#include "common/strings.h"

namespace xmodel::common {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Int(int64_t i) {
  Json j;
  j.type_ = Type::kInt;
  j.int_ = i;
  return j;
}

Json Json::Double(double d) {
  Json j;
  j.type_ = Type::kDouble;
  j.double_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::MakeArray() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::MakeObject() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::bool_value() const {
  assert(is_bool());
  return bool_;
}

int64_t Json::int_value() const {
  assert(is_int() || is_double());
  return is_int() ? int_ : static_cast<int64_t>(double_);
}

double Json::double_value() const {
  assert(is_double() || is_int());
  return is_double() ? double_ : static_cast<double>(int_);
}

const std::string& Json::string_value() const {
  assert(is_string());
  return string_;
}

const Json::Array& Json::array() const {
  assert(is_array());
  return array_;
}

Json::Array& Json::array() {
  assert(is_array());
  return array_;
}

const Json::Members& Json::members() const {
  assert(is_object());
  return members_;
}

void Json::Append(Json v) {
  assert(is_array());
  array_.push_back(std::move(v));
}

void Json::Set(std::string key, Json v) {
  assert(is_object());
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  size_t run = 0;  // Start of the pending run of bytes that need no escape.
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"':
        escape = "\\\"";
        break;
      case '\\':
        escape = "\\\\";
        break;
      case '\n':
        escape = "\\n";
        break;
      case '\t':
        escape = "\\t";
        break;
      case '\r':
        escape = "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out->append(escape);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

void AppendJsonInt(std::string* out, int64_t i) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), i);
  out->append(buf, r.ptr);
}

void Json::AppendTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kInt:
      AppendJsonInt(out, int_);
      return;
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out->append(buf);
      return;
    }
    case Type::kString:
      AppendJsonString(out, string_);
      return;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].AppendTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendJsonString(out, members_[i].first);
        out->push_back(':');
        members_[i].second.AppendTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  AppendTo(&out);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return members_ == other.members_;
  }
  return false;
}

bool JsonCursor::Fail(std::string_view what) {
  if (status_.ok()) {
    status_ = Status::Corruption(StrCat(what, " at offset ", pos_));
  }
  return false;
}

namespace {

// The C locale's isspace and isdigit, without a locale lookup per byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void JsonCursor::SkipWhitespace() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
}

bool JsonCursor::Consume(char c) {
  if (!status_.ok()) return false;
  SkipWhitespace();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonCursor::Expect(char c) {
  return Consume(c) || Fail(StrCat("expected '", c, "'"));
}

bool JsonCursor::ConsumeNull() {
  if (!Consume('n')) return false;
  if (text_.substr(pos_, 3) == "ull") {
    pos_ += 3;
    return true;
  }
  --pos_;
  return Fail("bad literal");
}

bool JsonCursor::ExpectEnd() {
  if (!status_.ok()) return false;
  SkipWhitespace();
  return pos_ == text_.size() || Fail("trailing characters");
}

bool JsonCursor::ReadString(std::string* out) {
  if (!Consume('"')) return Fail("expected '\"'");
  if (out != nullptr) out->clear();
  while (pos_ < text_.size()) {
    // Copy the run of bytes up to the next quote or escape in one append.
    size_t end = pos_;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
      ++end;
    }
    if (out != nullptr) out->append(text_.data() + pos_, end - pos_);
    pos_ = end;
    if (pos_ >= text_.size()) break;
    if (text_[pos_++] == '"') return true;
    if (pos_ >= text_.size()) return Fail("dangling escape");
    char decoded = 0;
    switch (text_[pos_++]) {
      case '"':
        decoded = '"';
        break;
      case '\\':
        decoded = '\\';
        break;
      case '/':
        decoded = '/';
        break;
      case 'n':
        decoded = '\n';
        break;
      case 't':
        decoded = '\t';
        break;
      case 'r':
        decoded = '\r';
        break;
      case 'b':
        decoded = '\b';
        break;
      case 'f':
        decoded = '\f';
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Fail("bad \\u escape");
          }
        }
        if (out == nullptr) continue;
        // Encode as UTF-8 (basic multilingual plane only).
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xc0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          out->push_back(static_cast<char>(0xe0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        continue;
      }
      default:
        return Fail("unknown escape");
    }
    if (out != nullptr) out->push_back(decoded);
  }
  return Fail("unterminated string");
}

bool JsonCursor::ScanNumber(std::string_view* token, bool* is_int) {
  const size_t start = pos_;
  auto scan_digits = [this] {
    const size_t first = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > first;
  };
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  // A leading zero is the whole integer part, so "01" leaves "1" behind
  // as an unexpected token.
  if (pos_ < text_.size() && text_[pos_] == '0') {
    ++pos_;
  } else if (!scan_digits()) {
    return Fail("expected digits");
  }
  *is_int = true;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    *is_int = false;
    ++pos_;
    if (!scan_digits()) return Fail("expected digits");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    *is_int = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (!scan_digits()) return Fail("expected digits");
  }
  *token = text_.substr(start, pos_ - start);
  return true;
}

bool JsonCursor::ReadInt(int64_t* out) {
  if (!status_.ok()) return false;
  SkipWhitespace();
  const size_t start = pos_;
  std::string_view token;
  bool is_int = false;
  if (!ScanNumber(&token, &is_int)) return false;
  pos_ = start;  // Errors below name the token's offset.
  if (!is_int) return Fail("expected an integer");
  const char* end = token.data() + token.size();
  if (std::from_chars(token.data(), end, *out).ec != std::errc()) {
    return Fail("integer out of range");
  }
  pos_ += token.size();
  return true;
}

bool JsonCursor::ReadBool(bool* out) {
  if (!status_.ok()) return false;
  SkipWhitespace();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    *out = true;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    *out = false;
    return true;
  }
  return Fail("expected true or false");
}

bool JsonCursor::ReadValue(Json* out, int depth) {
  if (!status_.ok()) return false;
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{': {
      if (depth >= kMaxDepth) return Fail("nesting too deep");
      if (out != nullptr) *out = Json::MakeObject();
      return ReadObject([&](std::string_view key) {
        if (out == nullptr) return ReadValue(nullptr, depth + 1);
        Json value;
        if (!ReadValue(&value, depth + 1)) return false;
        out->Set(std::string(key), std::move(value));
        return true;
      });
    }
    case '[': {
      if (depth >= kMaxDepth) return Fail("nesting too deep");
      if (out != nullptr) *out = Json::MakeArray();
      return ReadArray([&] {
        if (out == nullptr) return ReadValue(nullptr, depth + 1);
        Json element;
        if (!ReadValue(&element, depth + 1)) return false;
        out->Append(std::move(element));
        return true;
      });
    }
    case '"': {
      if (out == nullptr) return ReadString(nullptr);
      std::string s;
      if (!ReadString(&s)) return false;
      *out = Json::Str(std::move(s));
      return true;
    }
    case 't':
    case 'f': {
      bool b = false;
      if (!ReadBool(&b)) return Fail("bad literal");
      if (out != nullptr) *out = Json::Bool(b);
      return true;
    }
    case 'n':
      if (!ConsumeNull()) return Fail("bad literal");
      if (out != nullptr) *out = Json::Null();
      return true;
    default:
      break;
  }
  const size_t start = pos_;
  std::string_view token;
  bool is_int = false;
  if (!ScanNumber(&token, &is_int)) return false;
  const char* end = token.data() + token.size();
  if (is_int) {
    int64_t i = 0;
    if (std::from_chars(token.data(), end, i).ec != std::errc()) {
      pos_ = start;
      return Fail("integer out of range");
    }
    if (out != nullptr) *out = Json::Int(i);
  } else {
    double d = 0;
    if (std::from_chars(token.data(), end, d).ec != std::errc()) {
      pos_ = start;
      return Fail("number out of range");
    }
    if (out != nullptr) *out = Json::Double(d);
  }
  return true;
}

Result<Json> Json::Parse(std::string_view text) {
  JsonCursor in(text);
  Json out;
  if (!in.ReadValue(&out) || !in.ExpectEnd()) return in.status();
  return out;
}

}  // namespace xmodel::common
