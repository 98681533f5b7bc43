#include "common/strings.h"

#include <cctype>
#include <cstdio>

namespace xmodel::common {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseFlags(int argc, char** argv, const std::string& program,
                const std::vector<FlagParser>& parsers) {
  for (int i = 1; i < argc; ++i) {
    std::string error = StrCat("unknown flag: ", argv[i]);
    FlagResult result = FlagResult::kUnknown;
    for (const FlagParser& parse : parsers) {
      if (result == FlagResult::kUnknown) result = parse(argv[i], &error);
    }
    if (result != FlagResult::kParsed) {
      std::fprintf(stderr, "%s: %s\n", program.c_str(), error.c_str());
      return false;
    }
  }
  return true;
}

bool MatchFlag(std::string_view arg, std::string_view name,
               std::string_view* value) {
  if (arg.size() <= name.size() || arg[name.size()] != '=' ||
      !StartsWith(arg, name)) {
    return false;
  }
  *value = arg.substr(name.size() + 1);
  return true;
}

FlagResult ParsePathFlag(std::string_view name, std::string_view value,
                         std::string* out, std::string* error) {
  if (value.empty()) {
    *error = StrCat(name, " must name a path");
    return FlagResult::kBad;
  }
  *out = std::string(value);
  return FlagResult::kParsed;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

}  // namespace xmodel::common
