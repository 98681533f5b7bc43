#ifndef XMODEL_COMMON_STRINGS_H_
#define XMODEL_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace xmodel::common {

namespace internal_strings {

inline void AppendPiece(std::ostringstream* os, const std::string& s) {
  *os << s;
}
inline void AppendPiece(std::ostringstream* os, std::string_view s) { *os << s; }
inline void AppendPiece(std::ostringstream* os, const char* s) { *os << s; }
inline void AppendPiece(std::ostringstream* os, char c) { *os << c; }
inline void AppendPiece(std::ostringstream* os, bool b) {
  *os << (b ? "true" : "false");
}
template <typename T>
inline void AppendPiece(std::ostringstream* os, const T& v) {
  *os << v;
}

}  // namespace internal_strings

/// Concatenates its arguments into one string (numbers via operator<<).
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (internal_strings::AppendPiece(&os, args), ...);
  return os.str();
}

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Joins `pieces` with `sep` between them.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses `text` as a base-10 integer in [min, max]: digits, with a
/// leading '-' only for signed types. Returns false, leaving `*out`
/// untouched, on an empty string, any other byte (sign, space, trailing
/// unit), overflow, or a value outside the range.
template <typename T>
bool ParseInteger(std::string_view text, T min, T max, T* out) {
  static_assert(std::is_integral_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// What a flag parser did with one command-line argument.
enum class FlagResult {
  kUnknown,  // Not one of its flags; the argument is left for the caller.
  kParsed,   // Consumed; the value is stored.
  kBad,      // Its flag with a bad value; the output is untouched and the
             // error message names the flag.
};

/// One link of a ParseFlags chain.
using FlagParser =
    std::function<FlagResult(std::string_view arg, std::string* error)>;

/// Offers each argument after argv[0] to `parsers` in order until one
/// claims it. At the first bad value, or an argument none claims, prints
/// "<program>: <error>" to stderr and returns false.
bool ParseFlags(int argc, char** argv, const std::string& program,
                const std::vector<FlagParser>& parsers);

/// True, with `*value` set, when `arg` is `<name>=<value>`.
bool MatchFlag(std::string_view arg, std::string_view name,
               std::string_view* value);

/// Stores the value of the path flag `name` in `*out`; an empty value is
/// kBad.
FlagResult ParsePathFlag(std::string_view name, std::string_view value,
                         std::string* out, std::string* error);

/// Parses the value of the integer flag `name` into `*out` (see
/// ParseInteger); on failure sets `*error` to a message naming the flag
/// and its range.
template <typename T>
FlagResult ParseIntegerFlag(std::string_view name, std::string_view value,
                            T min, T max, T* out, std::string* error) {
  if (ParseInteger(value, min, max, out)) return FlagResult::kParsed;
  *error = StrCat(name, " must be an integer in [", min, ", ", max,
                  "], got '", value, "'");
  return FlagResult::kBad;
}

}  // namespace xmodel::common

#endif  // XMODEL_COMMON_STRINGS_H_
