#include "tlax/fpset_spill.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <queue>

#include "common/clock.h"
#include "common/fileio.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/varint.h"

namespace xmodel::tlax {

namespace {

// Run file layout (all multi-byte integers little-endian):
//
//   [8]  magic "XFPRUN2\0"
//   [8]  entry count
//   per block:
//     [8]  payload byte length
//     payload:
//       fixed64  n (entries in this block)
//       fixed64  fingerprints (n, strictly ascending)
//       n times: fixed64 pred_fp, varint order_key, varint action,
//                varint zigzag(depth)
//       fixed64  block checksum: xor of the per-entry hashes — verified
//                on every block decode, so an edge read from the mapped
//                file re-proves its integrity each time
//   [8]  checksum: xor of a per-entry hash chained over the fingerprint
//        AND its edge fields, mixed with the count — a flipped bit in
//        the sidecar fails validation, not just one in the fp stream
//
// The fingerprint section is a raw sorted fixed64 array rather than
// varint deltas on purpose: run files are mmap'd, and a membership
// probe binary-searches the array in place — no syscall, no block
// decode, no allocation. The varint edge sidecar is only decoded on
// the rare edge-lookup path (trace rebuild).
//
// The sparse index (first fp + byte extent per block) and the Bloom
// filter are rebuilt from a full scan when a file is adopted on resume;
// the scan doubles as corruption detection.
constexpr char kMagic[8] = {'X', 'F', 'P', 'R', 'U', 'N', '2', '\0'};
constexpr size_t kHeaderBytes = 16;
constexpr uint64_t kChecksumSeed = 0x5f3759df9e3779b9ULL;

// Bloom filter geometry: about 0.8% false positives, each of which costs
// one in-place block search.
constexpr uint64_t kBloomBitsPerKey = 10;
constexpr int kBloomProbes = 6;

uint64_t ChecksumFinish(uint64_t fp_xor, uint64_t count) {
  return fp_xor ^ common::Mix64(count ^ kChecksumSeed);
}

uint64_t EntryChecksum(uint64_t fp, const SpillTier::EdgeData& edge) {
  uint64_t h = common::Mix64(fp);
  h = common::HashCombine(h, edge.pred_fp);
  h = common::HashCombine(h, edge.order_key);
  h = common::HashCombine(h, static_cast<uint64_t>(edge.depth));
  h = common::HashCombine(h, edge.action);
  return h;
}

void BloomAdd(std::vector<uint64_t>* words, uint64_t fp) {
  const uint64_t bits = words->size() * 64;
  uint64_t h = common::Mix64(fp ^ 0xa076'1d64'78bd'642fULL);
  const uint64_t step = common::Mix64(fp + 0xe703'7ed1'a0b4'28dbULL) | 1;
  for (int i = 0; i < kBloomProbes; ++i) {
    const uint64_t bit = h % bits;
    (*words)[bit >> 6] |= uint64_t{1} << (bit & 63);
    h += step;
  }
}

bool BloomMayContain(const std::vector<uint64_t>& words, uint64_t fp) {
  const uint64_t bits = words.size() * 64;
  uint64_t h = common::Mix64(fp ^ 0xa076'1d64'78bd'642fULL);
  const uint64_t step = common::Mix64(fp + 0xe703'7ed1'a0b4'28dbULL) | 1;
  for (int i = 0; i < kBloomProbes; ++i) {
    const uint64_t bit = h % bits;
    if (((words[bit >> 6] >> (bit & 63)) & 1) == 0) return false;
    h += step;
  }
  return true;
}

size_t BloomWords(uint64_t count) {
  const uint64_t bits = std::max<uint64_t>(64, count * kBloomBitsPerKey);
  return static_cast<size_t>((bits + 63) / 64);
}

common::Status Corrupt(const std::string& file, const char* what) {
  return common::Status::Corruption("spill run " + file + ": " + what);
}

// Little-endian fixed64 load straight off a mapped block (GetFixed64's
// layout, without the per-call bounds bookkeeping — callers validate the
// array extent once).
uint64_t RawFp(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

// Membership probe against a raw block payload: binary search of the
// in-place fingerprint array, no decoding. Returns 1 found, 0 absent,
// -1 malformed header.
int RawBlockContains(std::string_view payload, uint64_t fp) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!common::GetFixed64(payload, &pos, &n)) return -1;
  // 8 (count) + 8n (fps) + sidecar + 8 (block checksum) must fit.
  if (n == 0 || payload.size() < 16 || n > (payload.size() - 16) / 8) {
    return -1;
  }
  const char* base = payload.data() + 8;
  size_t lo = 0;
  size_t hi = static_cast<size_t>(n);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t v = RawFp(base + mid * 8);
    if (v < fp) {
      lo = mid + 1;
    } else if (v > fp) {
      hi = mid;
    } else {
      return 1;
    }
  }
  return 0;
}

common::Status DecodeBlockPayload(std::string_view payload,
                                  const std::string& file,
                                  std::vector<SpillTier::Entry>* out) {
  out->clear();
  size_t pos = 0;
  uint64_t n = 0;
  if (!common::GetFixed64(payload, &pos, &n)) {
    return Corrupt(file, "truncated block entry count");
  }
  if (n == 0 || payload.size() < 16 || n > (payload.size() - 16) / 8) {
    return Corrupt(file, "implausible block entry count");
  }
  out->reserve(static_cast<size_t>(n));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t fp = 0;
    if (!common::GetFixed64(payload, &pos, &fp)) {
      return Corrupt(file, "truncated fingerprint array");
    }
    if (i > 0 && fp <= prev) {
      return Corrupt(file, "fingerprints out of order");
    }
    prev = fp;
    out->emplace_back(fp, SpillTier::EdgeData{});
  }
  for (uint64_t i = 0; i < n; ++i) {
    SpillTier::EdgeData& edge = (*out)[static_cast<size_t>(i)].second;
    uint64_t action = 0;
    if (!common::GetFixed64(payload, &pos, &edge.pred_fp) ||
        !common::GetVarint64(payload, &pos, &edge.order_key) ||
        !common::GetVarint64(payload, &pos, &action) ||
        !common::GetVarintSigned(payload, &pos, &edge.depth)) {
      return Corrupt(file, "truncated edge sidecar");
    }
    if (action > UINT16_MAX) return Corrupt(file, "edge action out of range");
    edge.action = static_cast<uint16_t>(action);
  }
  uint64_t declared_sum = 0;
  if (!common::GetFixed64(payload, &pos, &declared_sum)) {
    return Corrupt(file, "truncated block checksum");
  }
  if (pos != payload.size()) {
    return Corrupt(file, "trailing bytes in block");
  }
  uint64_t sum = 0;
  for (const SpillTier::Entry& e : *out) {
    sum ^= EntryChecksum(e.first, e.second);
  }
  if (sum != declared_sum) {
    return Corrupt(file, "block checksum mismatch");
  }
  return common::Status::OK();
}

}  // namespace

// Accumulates sorted entries into the on-disk run representation, the
// shared backend of SealRun and compaction. `expected_count` is the whole
// run's entry count: it sizes the Bloom filter and is written to the
// header. A `part` builder encodes one block-aligned range of a run with
// no header, for Append into the whole-run builder.
class SpillTier::RunBuilder {
 public:
  explicit RunBuilder(uint64_t expected_count, bool part = false)
      : bloom_(BloomWords(expected_count), 0) {
    if (part) return;
    contents_.append(kMagic, sizeof(kMagic));
    common::PutFixed64(expected_count, &contents_);
  }

  // Reserves room for `entries` more entries' bytes (an estimate: a
  // fingerprint, a predecessor and short varints each).
  void Reserve(size_t entries) {
    contents_.reserve(contents_.size() + entries * 32 +
                      (entries / kBlockEntries + 1) * 24);
  }

  // Appends `part`'s blocks after this builder's: the bytes concatenate,
  // the Bloom words OR together, the checksums XOR and the block index
  // shifts by this builder's length — exactly the state Add would have
  // reached on the part's entries. This builder must sit on a block
  // boundary (its earlier parts were full blocks).
  void Append(RunBuilder&& part) {
    if (!part.pending_.empty()) part.FlushBlock();
    const uint64_t base = contents_.size();
    contents_.append(part.contents_);
    std::string().swap(part.contents_);
    for (size_t i = 0; i < bloom_.size(); ++i) bloom_[i] |= part.bloom_[i];
    checksum_ ^= part.checksum_;
    count_ += part.count_;
    block_first_fp_.insert(block_first_fp_.end(),
                           part.block_first_fp_.begin(),
                           part.block_first_fp_.end());
    for (uint64_t offset : part.block_offset_) {
      block_offset_.push_back(base + offset);
    }
    block_len_.insert(block_len_.end(), part.block_len_.begin(),
                      part.block_len_.end());
  }

  void Add(uint64_t fp, const SpillTier::EdgeData& edge) {
    pending_.emplace_back(fp, edge);
    BloomAdd(&bloom_, fp);
    ++count_;
    if (pending_.size() >= kBlockEntries) FlushBlock();
  }

  std::string Finish() {
    if (!pending_.empty()) FlushBlock();
    common::PutFixed64(ChecksumFinish(checksum_, count_), &contents_);
    return std::move(contents_);
  }

  uint64_t count() const { return count_; }
  std::vector<uint64_t> TakeBloom() { return std::move(bloom_); }
  std::vector<uint64_t> TakeBlockFirstFp() {
    return std::move(block_first_fp_);
  }
  std::vector<uint64_t> TakeBlockOffset() { return std::move(block_offset_); }
  std::vector<uint32_t> TakeBlockLen() { return std::move(block_len_); }

 private:
  void FlushBlock() {
    // The payload goes straight into contents_ behind its length, which
    // is patched in once the payload is written.
    const size_t length_at = contents_.size();
    common::PutFixed64(0, &contents_);
    const size_t payload_at = contents_.size();
    common::PutFixed64(pending_.size(), &contents_);
    for (const SpillTier::Entry& e : pending_) {
      common::PutFixed64(e.first, &contents_);
    }
    uint64_t block_sum = 0;
    for (const SpillTier::Entry& e : pending_) {
      common::PutFixed64(e.second.pred_fp, &contents_);
      common::PutVarint64(e.second.order_key, &contents_);
      common::PutVarint64(e.second.action, &contents_);
      common::PutVarintSigned(e.second.depth, &contents_);
      block_sum ^= EntryChecksum(e.first, e.second);
    }
    common::PutFixed64(block_sum, &contents_);
    // The run checksum is the XOR of every entry's, so it folds in the
    // block's whole.
    checksum_ ^= block_sum;
    const size_t payload_len = contents_.size() - payload_at;
    std::string length;
    common::PutFixed64(payload_len, &length);
    contents_.replace(length_at, length.size(), length);
    block_first_fp_.push_back(pending_[0].first);
    block_offset_.push_back(payload_at);
    block_len_.push_back(static_cast<uint32_t>(payload_len));
    pending_.clear();
  }

  std::string contents_;
  std::vector<SpillTier::Entry> pending_;
  std::vector<uint64_t> bloom_;
  std::vector<uint64_t> block_first_fp_;
  std::vector<uint64_t> block_offset_;
  std::vector<uint32_t> block_len_;
  uint64_t checksum_ = 0;
  uint64_t count_ = 0;
};

struct SpillTier::Run {
  std::string file;  // Name within the spill dir.
  std::string path;
  uint64_t count = 0;
  uint64_t bytes = 0;
  // Read-only map of the whole (immutable) file: the only way probes,
  // edge lookups and compaction read run bytes.
  const char* map = nullptr;
  std::vector<uint64_t> block_first_fp;
  std::vector<uint64_t> block_offset;
  std::vector<uint32_t> block_len;
  std::vector<uint64_t> bloom;

  ~Run() {
    if (map != nullptr) ::munmap(const_cast<char*>(map), bytes);
  }

  // Maps the whole file. The descriptor is closed right away: the
  // mapping alone keeps the pages reachable. A file too short for a
  // header and checksum is corrupt (mmap would refuse an empty one).
  common::Status Map() {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) {
        return common::Status::NotFound(path + " does not exist");
      }
      return common::Status::Internal("open " + path + ": " +
                                      std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int stat_errno = errno;
      ::close(fd);
      return common::Status::Internal("fstat " + path + ": " +
                                      std::strerror(stat_errno));
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size < kHeaderBytes + 8) {
      ::close(fd);
      return Corrupt(file, "missing or short header");
    }
    void* m = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                     MAP_SHARED, fd, 0);
    const int map_errno = errno;
    ::close(fd);
    if (m == MAP_FAILED) {
      return common::Status::Internal("mmap " + path + ": " +
                                      std::strerror(map_errno));
    }
    map = static_cast<const char*>(m);
    bytes = size;
    return common::Status::OK();
  }

  // Block extents come from the builder or from OpenRun's validating
  // scan, so they always lie inside the map.
  std::string_view Payload(size_t block) const {
    return std::string_view(map + block_offset[block], block_len[block]);
  }
};

SpillTier::SpillTier(Options options) : options_(std::move(options)) {}

SpillTier::~SpillTier() = default;

void SpillTier::RecordError(const common::Status& status) const {
  std::lock_guard<std::mutex> lock(status_mu_);
  if (status_.ok()) status_ = status;
}

common::Status SpillTier::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_;
}

std::string SpillTier::NextRunFile() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run-%06llu.run",
                static_cast<unsigned long long>(next_generation_++));
  return buf;
}

common::Status SpillTier::FindInRun(const Run& run, uint64_t fp,
                                    EdgeData* edge) const {
  auto it = std::upper_bound(run.block_first_fp.begin(),
                             run.block_first_fp.end(), fp);
  if (it == run.block_first_fp.begin()) {
    return common::Status::NotFound("");
  }
  const size_t block =
      static_cast<size_t>(it - run.block_first_fp.begin()) - 1;
  std::vector<Entry> entries;
  common::Status status =
      DecodeBlockPayload(run.Payload(block), run.file, &entries);
  if (!status.ok()) return status;
  auto entry = std::lower_bound(
      entries.begin(), entries.end(), fp,
      [](const Entry& e, uint64_t key) { return e.first < key; });
  if (entry == entries.end() || entry->first != fp) {
    return common::Status::NotFound("");
  }
  *edge = entry->second;
  return common::Status::OK();
}

common::Status SpillTier::WriteRun(RunBuilder* builder,
                                   std::unique_ptr<Run>* out) {
  auto run = std::make_unique<Run>();
  run->file = NextRunFile();
  run->path = options_.dir + "/" + run->file;
  const std::string contents = builder->Finish();
  common::WriteFileOptions write_options;
  write_options.durable = options_.durable;
  common::Status status =
      common::WriteFileAtomic(run->path, contents, write_options);
  if (status.ok()) status = run->Map();
  if (!status.ok()) {
    RecordError(status);
    return status;
  }
  run->count = builder->count();
  run->bloom = builder->TakeBloom();
  run->block_first_fp = builder->TakeBlockFirstFp();
  run->block_offset = builder->TakeBlockOffset();
  run->block_len = builder->TakeBlockLen();
  bytes_written_ += contents.size();
  *out = std::move(run);
  return common::Status::OK();
}

common::Status SpillTier::SealRun(
    const std::vector<std::span<const Entry>>& slices,
    common::WorkerPool* pool) {
  // Probes binary-search the run, so an out-of-order or repeated
  // fingerprint would make lookups silently miss: refuse to write it.
  size_t total = 0;
  uint64_t prev = 0;
  for (std::span<const Entry> slice : slices) {
    for (const Entry& e : slice) {
      if (total > 0 && prev >= e.first) {
        return common::Status::Internal(common::StrCat(
            "SealRun: fingerprints not strictly ascending at entry ", total));
      }
      prev = e.first;
      ++total;
    }
  }
  if (total == 0) return common::Status::OK();
  // Encode block-aligned ranges, one per pool worker, each into its own
  // builder (task-local, so no two tasks write one cache line); appending
  // the parts in order yields the bytes of a one-range encode.
  const size_t blocks = (total + kBlockEntries - 1) / kBlockEntries;
  const size_t parts = std::min(blocks, common::ParallelWidth(pool));
  const size_t part_entries = (blocks + parts - 1) / parts * kBlockEntries;
  std::vector<std::unique_ptr<RunBuilder>> built(parts);
  common::ParallelFor(pool, parts, [&](size_t p) {
    auto part = std::make_unique<RunBuilder>(total, /*part=*/true);
    // Walk the slices from the part's first entry.
    size_t slice = 0;
    size_t offset = std::min(total, p * part_entries);
    size_t left = std::min(total - offset, part_entries);
    part->Reserve(left);
    for (; left > 0; ++offset, --left) {
      while (offset >= slices[slice].size()) offset -= slices[slice++].size();
      part->Add(slices[slice][offset].first, slices[slice][offset].second);
    }
    built[p] = std::move(part);
  });
  if (!dir_ready_) {
    common::Status status = common::EnsureDir(options_.dir);
    if (!status.ok()) {
      RecordError(status);
      return status;
    }
    dir_ready_ = true;
  }
  RunBuilder builder(total);
  builder.Reserve(total);
  for (std::unique_ptr<RunBuilder>& part : built) {
    builder.Append(std::move(*part));
    part.reset();
  }
  std::unique_ptr<Run> run;
  common::Status status = WriteRun(&builder, &run);
  if (!status.ok()) return status;
  ++generations_;
  runs_.push_back(std::move(run));
  return common::Status::OK();
}

bool SpillTier::FindOnDisk(uint64_t fp, EdgeData* edge) const {
  for (const std::unique_ptr<Run>& run : runs_) {
    if (!BloomMayContain(run->bloom, fp)) continue;
    probes_.fetch_add(1, std::memory_order_relaxed);
    const int64_t start_ns = common::MonotonicClock::Real()->NowNanos();
    common::Status status = FindInRun(*run, fp, edge);
    probe_ns_.fetch_add(
        common::MonotonicClock::Real()->NowNanos() - start_ns,
        std::memory_order_relaxed);
    if (status.ok()) return true;
    if (status.code() != common::StatusCode::kNotFound) {
      RecordError(status);
      return false;
    }
  }
  return false;
}

void SpillTier::FindBatch(const std::vector<uint64_t>& sorted_fps,
                          std::vector<uint8_t>* found) const {
  found->assign(sorted_fps.size(), 0);
  if (sorted_fps.empty()) return;
  std::vector<size_t> survivors;
  for (const std::unique_ptr<Run>& run : runs_) {
    // Bloom-gate first: the common case — a batch of brand-new
    // fingerprints — never touches disk at all.
    survivors.clear();
    for (size_t i = 0; i < sorted_fps.size(); ++i) {
      if ((*found)[i] != 0) continue;  // Runs are disjoint.
      if (!BloomMayContain(run->bloom, sorted_fps[i])) continue;
      survivors.push_back(i);
    }
    if (survivors.empty()) continue;
    probes_.fetch_add(survivors.size(), std::memory_order_relaxed);
    const int64_t start_ns = common::MonotonicClock::Real()->NowNanos();
    // One merged sweep: survivors are in ascending fp order, so their
    // block indices are nondecreasing — group them and search each
    // block once for the whole batch.
    const size_t nblocks = run->block_first_fp.size();
    size_t bi = 0;
    while (bi < survivors.size()) {
      const uint64_t fp = sorted_fps[survivors[bi]];
      auto it = std::upper_bound(run->block_first_fp.begin(),
                                 run->block_first_fp.end(), fp);
      if (it == run->block_first_fp.begin()) {
        ++bi;  // Below the run's first fingerprint: definitely absent.
        continue;
      }
      const size_t block =
          static_cast<size_t>(it - run->block_first_fp.begin()) - 1;
      const bool last_block = block + 1 >= nblocks;
      const uint64_t next_first =
          last_block ? 0 : run->block_first_fp[block + 1];
      size_t bj = bi;
      while (bj < survivors.size() &&
             (last_block || sorted_fps[survivors[bj]] < next_first)) {
        ++bj;
      }
      // Membership is an in-place binary search of the mapped
      // fingerprint array — no syscall, no decode. This is the probe hot
      // path.
      const std::string_view raw = run->Payload(block);
      for (size_t k = bi; k < bj; ++k) {
        const int hit = RawBlockContains(raw, sorted_fps[survivors[k]]);
        if (hit < 0) {
          RecordError(Corrupt(run->file, "malformed block header"));
          probe_ns_.fetch_add(
              common::MonotonicClock::Real()->NowNanos() - start_ns,
              std::memory_order_relaxed);
          return;
        }
        if (hit > 0) (*found)[survivors[k]] = 1;
      }
      bi = bj;
    }
    probe_ns_.fetch_add(
        common::MonotonicClock::Real()->NowNanos() - start_ns,
        std::memory_order_relaxed);
  }
}

common::Status SpillTier::CompactIfNeeded() {
  if (runs_.size() < kCompactMinRuns) return common::Status::OK();
  const int64_t start_ns = common::MonotonicClock::Real()->NowNanos();

  // Streaming k-way merge: one decoded block per run in memory at a
  // time, heap-ordered by the cursors' current fingerprints.
  struct Cursor {
    const Run* run = nullptr;
    size_t block = 0;
    size_t i = 0;
    std::vector<Entry> entries;
  };
  std::vector<Cursor> cursors;
  uint64_t total = 0;
  for (const std::unique_ptr<Run>& run : runs_) {
    total += run->count;
    cursors.emplace_back();
    cursors.back().run = run.get();
  }
  auto load = [](Cursor* c) -> common::Status {
    c->entries.clear();
    c->i = 0;
    if (c->block >= c->run->block_first_fp.size()) {
      return common::Status::OK();  // Exhausted.
    }
    common::Status status = DecodeBlockPayload(c->run->Payload(c->block),
                                               c->run->file, &c->entries);
    if (!status.ok()) return status;
    ++c->block;
    return common::Status::OK();
  };
  using HeapItem = std::pair<uint64_t, size_t>;  // (fp, cursor index)
  std::priority_queue<HeapItem, std::vector<HeapItem>,
                      std::greater<HeapItem>>
      heap;
  for (size_t ci = 0; ci < cursors.size(); ++ci) {
    common::Status status = load(&cursors[ci]);
    if (!status.ok()) {
      RecordError(status);
      return status;
    }
    if (!cursors[ci].entries.empty()) {
      heap.emplace(cursors[ci].entries[0].first, ci);
    }
  }
  RunBuilder builder(total);
  while (!heap.empty()) {
    const auto [fp, ci] = heap.top();
    heap.pop();
    Cursor& c = cursors[ci];
    builder.Add(fp, c.entries[c.i].second);
    ++c.i;
    if (c.i >= c.entries.size()) {
      common::Status status = load(&c);
      if (!status.ok()) {
        RecordError(status);
        return status;
      }
    }
    if (c.i < c.entries.size()) {
      heap.emplace(c.entries[c.i].first, ci);
    }
  }

  std::unique_ptr<Run> merged;
  common::Status status = WriteRun(&builder, &merged);
  if (!status.ok()) return status;
  ++compactions_;
  std::vector<std::unique_ptr<Run>> inputs = std::exchange(runs_, {});
  runs_.push_back(std::move(merged));
  // The inputs are unmapped when `inputs` goes; their files go now, or at
  // the next PurgeRetired() when a manifest may still name them.
  for (const std::unique_ptr<Run>& run : inputs) {
    if (options_.durable) {
      retired_.push_back(run->path);
    } else {
      common::RemoveFileIfExists(run->path);
    }
  }
  merge_ns_ += common::MonotonicClock::Real()->NowNanos() - start_ns;
  return common::Status::OK();
}

common::Status SpillTier::OpenRun(const std::string& file,
                                  std::unique_ptr<Run>* out) {
  auto run = std::make_unique<Run>();
  run->file = file;
  run->path = options_.dir + "/" + file;
  // Validate over the map itself: no heap copy of the run, and on
  // success the map is the one probes read.
  common::Status status = run->Map();
  if (!status.ok()) return status;
  const std::string_view contents(run->map, run->bytes);
  if (std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(file, "missing or short header");
  }
  size_t pos = sizeof(kMagic);
  uint64_t declared = 0;
  common::GetFixed64(contents, &pos, &declared);
  // The count sizes the Bloom filter, so one the file cannot hold must
  // not reach the allocation: every entry takes at least 19 bytes (a
  // fingerprint, a predecessor and three one-byte varints).
  if (declared > run->bytes / 16) {
    return Corrupt(file, "entry count exceeds the file size");
  }
  run->bloom.assign(BloomWords(declared), 0);
  uint64_t scanned = 0;
  uint64_t checksum = 0;
  uint64_t prev_fp = 0;
  std::vector<Entry> entries;
  // Everything between the header and the trailing checksum is blocks.
  const size_t blocks_end = contents.size() - 8;
  while (pos < blocks_end) {
    uint64_t payload_len = 0;
    if (!common::GetFixed64(contents, &pos, &payload_len) ||
        payload_len > blocks_end - pos) {
      return Corrupt(file, "truncated block");
    }
    const std::string_view payload(contents.data() + pos,
                                   static_cast<size_t>(payload_len));
    status = DecodeBlockPayload(payload, file, &entries);
    if (!status.ok()) return status;
    if (scanned > 0 && entries[0].first <= prev_fp) {
      return Corrupt(file, "blocks out of fingerprint order");
    }
    run->block_first_fp.push_back(entries[0].first);
    run->block_offset.push_back(pos);
    run->block_len.push_back(static_cast<uint32_t>(payload_len));
    for (const Entry& e : entries) {
      BloomAdd(&run->bloom, e.first);
      checksum ^= EntryChecksum(e.first, e.second);
    }
    scanned += entries.size();
    prev_fp = entries.back().first;
    pos += static_cast<size_t>(payload_len);
  }
  if (scanned != declared) {
    return Corrupt(file, "entry count mismatch");
  }
  uint64_t declared_checksum = 0;
  pos = blocks_end;
  common::GetFixed64(contents, &pos, &declared_checksum);
  if (ChecksumFinish(checksum, scanned) != declared_checksum) {
    return Corrupt(file, "checksum mismatch");
  }
  run->count = declared;
  *out = std::move(run);
  return common::Status::OK();
}

common::Status SpillTier::AdoptRuns(const std::vector<std::string>& files) {
  std::vector<std::unique_ptr<Run>> adopted;
  uint64_t max_generation = 0;
  for (const std::string& file : files) {
    std::unique_ptr<Run> run;
    common::Status status = OpenRun(file, &run);
    if (!status.ok()) {
      RecordError(status);
      return status;
    }
    unsigned long long generation = 0;
    if (std::sscanf(file.c_str(), "run-%6llu.run", &generation) == 1) {
      max_generation = std::max(max_generation,
                                static_cast<uint64_t>(generation) + 1);
    }
    adopted.push_back(std::move(run));
  }
  dir_ready_ = true;
  next_generation_ = std::max(next_generation_, max_generation);
  runs_ = std::move(adopted);
  return common::Status::OK();
}

void SpillTier::PurgeRetired() {
  for (const std::string& path : retired_) {
    common::RemoveFileIfExists(path);
  }
  retired_.clear();
}

std::vector<SpillTier::RunInfo> SpillTier::run_infos() const {
  std::vector<RunInfo> infos;
  infos.reserve(runs_.size());
  for (const std::unique_ptr<Run>& run : runs_) {
    infos.push_back(RunInfo{run->file, run->count, run->bytes});
  }
  return infos;
}

SpillTier::Stats SpillTier::stats() const {
  Stats s;
  s.runs = runs_.size();
  for (const std::unique_ptr<Run>& run : runs_) {
    s.spilled_records += run->count;
    s.live_bytes += run->bytes;
  }
  s.generations = generations_;
  s.bytes_written = bytes_written_;
  s.compactions = compactions_;
  s.probes = probes_.load(std::memory_order_relaxed);
  s.probe_ms =
      static_cast<double>(probe_ns_.load(std::memory_order_relaxed)) * 1e-6;
  s.merge_ms = static_cast<double>(merge_ns_) * 1e-6;
  return s;
}

}  // namespace xmodel::tlax
