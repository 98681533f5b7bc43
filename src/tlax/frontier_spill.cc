#include "tlax/frontier_spill.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string_view>
#include <utility>

#include "common/fileio.h"
#include "common/hash.h"
#include "common/varint.h"
#include "tlax/state_codec.h"

namespace xmodel::tlax::internal {

namespace {

// Segment layout: magic, fixed64 entry count, per entry the serialized
// state followed by fixed64 fp / zigzag-varint depth / fixed64 key, and
// a trailing fixed64 FNV-1a checksum over every preceding byte — the
// serialized states included, so any flipped bit is caught on resume.
constexpr char kSegMagic[8] = {'X', 'F', 'R', 'S', 'E', 'G', '1', '\0'};

// Segment files are named "seg-NNNNNN.seg", numbered in append order.
constexpr std::string_view kSegPrefix = "seg";

common::Status Corrupt(const std::string& file, const char* what) {
  return common::Status::Corruption("frontier segment " + file + ": " + what);
}

}  // namespace

FrontierSpool::FrontierSpool(Options options) : options_(std::move(options)) {
  if (options_.segment_entries == 0) options_.segment_entries = 4096;
}

FrontierSpool::~FrontierSpool() {
  if (prefetch_.valid()) prefetch_.get();
}

common::Status FrontierSpool::WriteSegment(
    std::span<LevelEntry* const> entries, const std::string& file) const {
  std::string contents(kSegMagic, sizeof(kSegMagic));
  common::PutFixed64(entries.size(), &contents);
  for (const LevelEntry* e : entries) {
    EncodeState(e->state, &contents);
    common::PutFixed64(e->fp, &contents);
    common::PutVarintSigned(e->depth, &contents);
    common::PutFixed64(e->key, &contents);
  }
  common::PutFixed64(common::HashString(contents), &contents);
  common::WriteFileOptions write_options;
  write_options.durable = options_.durable;
  return common::WriteFileAtomic(options_.dir + "/" + file, contents,
                                 write_options);
}

common::Status FrontierSpool::SealSegments(
    std::span<LevelEntry* const> stream, size_t segment_size,
    common::WorkerPool* pool) {
  const size_t segments = stream.size() / segment_size;
  if (segments == 0) return common::Status::OK();
  if (!dir_ready_) {
    common::Status status = common::EnsureDir(options_.dir);
    if (!status.ok()) return status;
    dir_ready_ = true;
  }
  std::vector<std::string> files(segments);
  for (std::string& file : files) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%06llu.seg",
                  static_cast<unsigned long long>(next_segment_++));
    file = std::string(kSegPrefix) + suffix;
  }
  // One task per segment: each encodes into its own buffer, writes its
  // file and drops the buffer, so at most one encoded segment per pool
  // worker is alive at a time.
  std::vector<common::Status> statuses(segments);
  common::ParallelFor(pool, segments, [&](size_t i) {
    statuses[i] = WriteSegment(
        stream.subspan(i * segment_size, segment_size), files[i]);
  });
  // Register in FIFO order, stopping at the first failure.
  for (size_t i = 0; i < segments; ++i) {
    if (!statuses[i].ok()) return statuses[i];
    spooled_ += segment_size;
    segments_written_.fetch_add(1, std::memory_order_relaxed);
    segments_.push_back(Segment{std::move(files[i]), segment_size});
  }
  return common::Status::OK();
}

common::Status FrontierSpool::ReadSegment(const std::string& file,
                                          std::vector<LevelEntry>* out) const {
  out->clear();
  std::string contents;
  common::Status status =
      common::ReadFileToString(options_.dir + "/" + file, &contents);
  if (!status.ok()) return status;
  if (contents.size() < sizeof(kSegMagic) + 16 ||
      std::memcmp(contents.data(), kSegMagic, sizeof(kSegMagic)) != 0) {
    return Corrupt(file, "missing or short header");
  }
  const std::string_view body(contents.data(), contents.size() - 8);
  size_t pos = body.size();
  uint64_t declared = 0;
  common::GetFixed64(contents, &pos, &declared);
  if (common::HashString(body) != declared) {
    return Corrupt(file, "checksum mismatch");
  }
  pos = sizeof(kSegMagic);
  uint64_t count = 0;
  common::GetFixed64(contents, &pos, &count);
  if (count > contents.size()) {
    return Corrupt(file, "implausible entry count");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    LevelEntry e;
    status = DecodeState(body, &pos, &e.state);
    if (!status.ok()) return status;
    if (!common::GetFixed64(body, &pos, &e.fp) ||
        !common::GetVarintSigned(body, &pos, &e.depth) ||
        !common::GetFixed64(body, &pos, &e.key)) {
      return Corrupt(file, "truncated entry");
    }
    out->push_back(std::move(e));
  }
  if (pos != body.size()) return Corrupt(file, "trailing bytes");
  return common::Status::OK();
}

common::Status FrontierSpool::Append(std::span<LevelEntry* const> entries,
                                     common::WorkerPool* pool) {
  // The stream to seal: the tail, then `entries`.
  std::vector<LevelEntry*> stream;
  stream.reserve(tail_.size() + entries.size());
  for (LevelEntry& e : tail_) stream.push_back(&e);
  stream.insert(stream.end(), entries.begin(), entries.end());
  const size_t segment = options_.segment_entries;
  common::Status status = SealSegments(stream, segment, pool);
  if (!status.ok()) return status;
  // The entries past the last whole segment become the tail. The tail
  // never holds a whole segment, so a sealed one consumed all of it and
  // the rest lies in `entries`; otherwise `entries` joins the tail.
  const size_t sealed = stream.size() / segment * segment;
  const size_t kept = std::max(sealed, tail_.size());
  if (sealed > 0) tail_.clear();
  for (size_t i = kept; i < stream.size(); ++i) {
    tail_.push_back(std::move(*stream[i]));
  }
  return common::Status::OK();
}

void FrontierSpool::StartPrefetch() {
  if (segments_.empty() || prefetch_.valid()) return;
  prefetch_file_ = segments_.front().file;
  // The target is a sealed, immutable file that stays live (never
  // retired) until the owner pops it, so the off-thread read races with
  // nothing. ReadSegment only touches options_, which is const here.
  prefetch_ = std::async(std::launch::async, [this, file = prefetch_file_] {
    std::vector<LevelEntry> entries;
    common::Status status = ReadSegment(file, &entries);
    return std::make_pair(std::move(status), std::move(entries));
  });
}

common::Status FrontierSpool::PopBatch(std::vector<LevelEntry>* out) {
  out->clear();
  if (!segments_.empty()) {
    Segment seg = std::move(segments_.front());
    segments_.pop_front();
    common::Status status;
    if (prefetch_.valid() && prefetch_file_ == seg.file) {
      auto prefetched = prefetch_.get();
      status = std::move(prefetched.first);
      *out = std::move(prefetched.second);
    } else {
      // Stale read-ahead (e.g. the front changed via AdoptSegments);
      // drain it and read synchronously.
      if (prefetch_.valid()) prefetch_.get();
      status = ReadSegment(seg.file, out);
    }
    if (!status.ok()) return status;
    if (out->size() != seg.count) {
      return Corrupt(seg.file, "entry count changed since sealing");
    }
    spooled_ -= seg.count;
    Retire(seg.file);
    // Double-buffer: start reading the next segment while the caller
    // expands this batch.
    StartPrefetch();
    return common::Status::OK();
  }
  *out = std::move(tail_);
  tail_.clear();
  return common::Status::OK();
}

common::Status FrontierSpool::Seal() {
  if (tail_.empty()) return common::Status::OK();
  std::vector<LevelEntry*> stream;
  for (LevelEntry& e : tail_) stream.push_back(&e);
  common::Status status = SealSegments(stream, stream.size(), nullptr);
  if (status.ok()) tail_.clear();
  return status;
}

std::vector<std::string> FrontierSpool::live_segment_files() const {
  std::vector<std::string> files;
  files.reserve(segments_.size());
  for (const Segment& seg : segments_) files.push_back(seg.file);
  return files;
}

common::Status FrontierSpool::AdoptSegments(
    const std::vector<std::string>& files, uint64_t* entries) {
  dir_ready_ = true;
  std::vector<LevelEntry> scratch;
  for (const std::string& file : files) {
    // Full validation up front: a resume should fail loudly here, not
    // deep inside the run when the segment is finally replayed.
    common::Status status = ReadSegment(file, &scratch);
    if (!status.ok()) return status;
    Segment seg;
    seg.file = file;
    seg.count = scratch.size();
    spooled_ += seg.count;
    *entries += seg.count;
    segments_.push_back(std::move(seg));
    // Keep numbering clear of adopted files.
    unsigned long long n = 0;
    if (file.starts_with(kSegPrefix) &&
        std::sscanf(file.c_str() + kSegPrefix.size(), "-%6llu.seg", &n) ==
            1 &&
        n + 1 > next_segment_) {
      next_segment_ = n + 1;
    }
  }
  return common::Status::OK();
}

void FrontierSpool::Retire(const std::string& file) {
  if (options_.durable) {
    consumed_.push_back(file);
  } else {
    common::RemoveFileIfExists(options_.dir + "/" + file);
  }
}

void FrontierSpool::PurgeConsumed() {
  for (const std::string& file : consumed_) {
    common::RemoveFileIfExists(options_.dir + "/" + file);
  }
  consumed_.clear();
}

}  // namespace xmodel::tlax::internal
