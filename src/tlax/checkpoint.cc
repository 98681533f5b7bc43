#include "tlax/checkpoint.h"

#include <set>
#include <string_view>
#include <utility>

#include "common/fileio.h"
#include "common/json.h"

namespace xmodel::tlax {

namespace {

constexpr const char* kManifestFile = "MANIFEST.json";

std::string HexEncode(const std::string& raw) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() * 2);
  for (unsigned char c : raw) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* raw) {
  if (hex.size() % 2 != 0) return false;
  raw->clear();
  raw->reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    raw->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

common::Status Corrupt(const std::string& what) {
  return common::Status::Corruption("checkpoint manifest: " + what);
}

// 64-bit counters ride in JSON ints; values here (state counts, byte
// sizes) never approach the 2^63 boundary.
common::Json U64(uint64_t v) {
  return common::Json::Int(static_cast<int64_t>(v));
}

bool GetU64(const common::Json& obj, const char* key, uint64_t* out) {
  const common::Json* v = obj.Find(key);
  if (v == nullptr || !v->is_int() || v->int_value() < 0) return false;
  *out = static_cast<uint64_t>(v->int_value());
  return true;
}

bool GetI64(const common::Json& obj, const char* key, int64_t* out) {
  const common::Json* v = obj.Find(key);
  if (v == nullptr || !v->is_int()) return false;
  *out = v->int_value();
  return true;
}

bool GetStr(const common::Json& obj, const char* key, std::string* out) {
  const common::Json* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->string_value();
  return true;
}

// Whether `name` is `<tier>-<digits>.<tier>` with six or more digits: a
// plain file name of the spill tier `tier` ("run" or "seg").
bool IsTierFileName(std::string_view name, std::string_view tier) {
  if (name.size() < 2 * tier.size() + 8 || !name.starts_with(tier) ||
      name[tier.size()] != '-' || !name.ends_with(tier) ||
      name[name.size() - tier.size() - 1] != '.') {
    return false;
  }
  const std::string_view digits =
      name.substr(tier.size() + 1, name.size() - 2 * tier.size() - 2);
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

common::Status WriteCheckpointManifest(const std::string& dir,
                                       const CheckpointManifest& manifest,
                                       bool durable) {
  common::Status status = common::EnsureDir(dir);
  if (!status.ok()) return status;

  common::Json doc = common::Json::MakeObject();
  doc.Set("schema", common::Json::Str(CheckpointManifest::kSchema));
  doc.Set("generated", U64(manifest.generated));
  doc.Set("distinct", U64(manifest.distinct));
  doc.Set("diameter", common::Json::Int(manifest.diameter));
  doc.Set("levels_completed", U64(manifest.levels_completed));
  doc.Set("frontier_peak", U64(manifest.frontier_peak));
  doc.Set("slept", U64(manifest.slept));
  doc.Set("checkpoints", U64(manifest.checkpoints));

  common::Json runs = common::Json::MakeArray();
  for (const SpillTier::RunInfo& info : manifest.runs) {
    common::Json run = common::Json::MakeObject();
    run.Set("file", common::Json::Str(info.file));
    run.Set("count", U64(info.count));
    run.Set("bytes", U64(info.bytes));
    runs.Append(std::move(run));
  }
  doc.Set("runs", std::move(runs));

  common::Json frontier = common::Json::MakeArray();
  for (const std::string& file : manifest.frontier) {
    frontier.Append(common::Json::Str(file));
  }
  doc.Set("frontier", std::move(frontier));
  doc.Set("frontier_total", U64(manifest.frontier_total));

  common::Json initials = common::Json::MakeArray();
  for (const std::string& blob : manifest.initial_states) {
    initials.Append(common::Json::Str(HexEncode(blob)));
  }
  doc.Set("initial_states", std::move(initials));

  common::WriteFileOptions write_options;
  write_options.durable = durable;
  return common::WriteFileAtomic(dir + "/" + kManifestFile, doc.Dump(),
                                 write_options);
}

common::Status ReadCheckpointManifest(const std::string& dir,
                                      CheckpointManifest* manifest) {
  std::string contents;
  common::Status status =
      common::ReadFileToString(dir + "/" + kManifestFile, &contents);
  if (!status.ok()) return status;
  common::Result<common::Json> parsed = common::Json::Parse(contents);
  if (!parsed.ok()) return Corrupt("not valid JSON");
  const common::Json& doc = parsed.value();
  std::string schema;
  if (!GetStr(doc, "schema", &schema)) return Corrupt("missing schema");
  if (schema != CheckpointManifest::kSchema) {
    return Corrupt("schema '" + schema + "' is not " +
                   CheckpointManifest::kSchema);
  }
  *manifest = CheckpointManifest();
  if (!GetU64(doc, "generated", &manifest->generated) ||
      !GetU64(doc, "distinct", &manifest->distinct) ||
      !GetI64(doc, "diameter", &manifest->diameter) ||
      !GetU64(doc, "levels_completed", &manifest->levels_completed) ||
      !GetU64(doc, "frontier_peak", &manifest->frontier_peak) ||
      !GetU64(doc, "slept", &manifest->slept) ||
      !GetU64(doc, "checkpoints", &manifest->checkpoints) ||
      !GetU64(doc, "frontier_total", &manifest->frontier_total)) {
    return Corrupt("missing or malformed counter fields");
  }

  const common::Json* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) return Corrupt("missing runs");
  for (const common::Json& run : runs->array()) {
    SpillTier::RunInfo info;
    if (!run.is_object() || !GetStr(run, "file", &info.file) ||
        !GetU64(run, "count", &info.count) ||
        !GetU64(run, "bytes", &info.bytes)) {
      return Corrupt("malformed run entry");
    }
    if (!IsTierFileName(info.file, "run")) {
      return Corrupt("run entry '" + info.file + "' is not a run file name");
    }
    manifest->runs.push_back(std::move(info));
  }

  const common::Json* frontier = doc.Find("frontier");
  if (frontier == nullptr || !frontier->is_array()) {
    return Corrupt("missing frontier");
  }
  for (const common::Json& file : frontier->array()) {
    if (!file.is_string()) return Corrupt("malformed frontier file");
    if (!IsTierFileName(file.string_value(), "seg")) {
      return Corrupt("frontier entry '" + file.string_value() +
                     "' is not a segment file name");
    }
    manifest->frontier.push_back(file.string_value());
  }

  const common::Json* initials = doc.Find("initial_states");
  if (initials == nullptr || !initials->is_array()) {
    return Corrupt("missing initial_states");
  }
  for (const common::Json& blob : initials->array()) {
    std::string raw;
    if (!blob.is_string() || !HexDecode(blob.string_value(), &raw)) {
      return Corrupt("malformed initial state blob");
    }
    manifest->initial_states.push_back(std::move(raw));
  }
  return common::Status::OK();
}

common::Status DropCheckpointOrphans(const std::string& dir,
                                     const CheckpointManifest& manifest) {
  std::vector<std::string> files;
  common::Status status = common::ListDirFiles(dir, &files);
  if (!status.ok()) {
    return status.code() == common::StatusCode::kNotFound
               ? common::Status::OK()
               : status;
  }
  std::set<std::string_view> live(manifest.frontier.begin(),
                                  manifest.frontier.end());
  for (const SpillTier::RunInfo& run : manifest.runs) live.insert(run.file);
  for (const std::string& file : files) {
    if ((IsTierFileName(file, "run") || IsTierFileName(file, "seg")) &&
        !live.contains(file)) {
      common::RemoveFileIfExists(dir + "/" + file);
    }
  }
  return common::Status::OK();
}

}  // namespace xmodel::tlax
