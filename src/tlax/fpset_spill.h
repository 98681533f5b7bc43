#ifndef XMODEL_TLAX_FPSET_SPILL_H_
#define XMODEL_TLAX_FPSET_SPILL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"

namespace xmodel::tlax {

/// The fingerprint set's disk tier: sealed, immutable runs of sorted
/// fingerprints with their discovery edges, the TLC out-of-core design.
/// Each run is one "spill generation" — the whole hot table frozen at
/// an eviction point — laid out as kBlockEntries-entry blocks: a raw
/// sorted fixed64 fingerprint array plus a varint-packed edge sidecar
/// (pred_fp, order_key, action, depth) so counterexample-trace rebuild
/// still works after eviction.
///
/// Per run the tier keeps two small in-memory structures: a Bloom filter
/// (so the common "fingerprint is new" probe stays memory-speed — a
/// negative never touches disk) and a per-block sparse index (first
/// fingerprint + byte extent). Run files are mmap'd read-only, so a
/// positive membership probe is an in-place binary search of the
/// mapped fingerprint array — no syscall, no decode, no allocation;
/// the OS page cache is the backing store, which is exactly the
/// out-of-core contract (the checker's own budget stays bounded while
/// reclaimable file pages absorb the working set). Runs are disjoint by
/// construction (a fingerprint is evicted exactly once), and a k-way
/// block-streaming merge compacts them when the run count grows.
///
/// Fast path: FindBatch probes a sorted batch of fingerprints with one
/// merged sweep per run — survivors of the Bloom gate walk the block
/// index monotonically and binary-search each mapped block in place.
/// Edge lookups (trace rebuild) decode the one mapped block that holds
/// the fingerprint, re-verifying its checksum. The map is the only read
/// path: a run that cannot be mapped is an error from SealRun, AdoptRuns
/// or compaction.
///
/// Thread safety: externally synchronized. SealRun, CompactIfNeeded,
/// AdoptRuns and PurgeRetired change the run list or the retired files
/// and need exclusive access; FindBatch, FindOnDisk, stats and run_infos
/// only read them and may overlap each other, but not a writer. The one
/// owner, FingerprintSet, already holds its eviction lock around every
/// call: shared for inserts, edge lookups and the stats and
/// run readers; exclusive for eviction (which seals and compacts),
/// adoption and purge. A second lock here would guard the same run list
/// twice. The probe counters and the sticky status are the only state
/// that overlapping readers write, so only they synchronize here. All
/// file writes go through common::WriteFileAtomic, so a crash never
/// leaves a half-written run visible.
class SpillTier {
 public:
  /// CompactIfNeeded merges once the live run count reaches this.
  static constexpr size_t kCompactMinRuns = 8;
  /// Fingerprints per block: the probe and merge IO granularity.
  static constexpr size_t kBlockEntries = 256;

  struct Options {
    /// Directory sealed runs live in. Created on demand.
    std::string dir;
    /// Checkpoint durability: fsync run files and the directory, and keep
    /// compacted-away run files on disk until PurgeRetired(). The last
    /// published manifest may still name a run that compaction just
    /// replaced, so the file must survive until the next manifest lands.
    bool durable = false;
  };

  /// The discovery edge spilled beside each fingerprint — exactly what
  /// FingerprintSet::GetEdge and trace rebuild need.
  struct EdgeData {
    uint64_t pred_fp = 0;
    uint64_t order_key = 0;
    int64_t depth = 0;
    uint16_t action = 0;
  };

  using Entry = std::pair<uint64_t, EdgeData>;

  struct RunInfo {
    std::string file;  // Name within dir, not a path.
    uint64_t count = 0;
    uint64_t bytes = 0;
  };

  struct Stats {
    uint64_t runs = 0;              // Currently live run files.
    uint64_t generations = 0;       // SealRun calls (spill generations).
    uint64_t spilled_records = 0;   // Records currently on disk.
    uint64_t live_bytes = 0;        // Bytes of live run files.
    uint64_t bytes_written = 0;     // Cumulative bytes written (monotone).
    uint64_t compactions = 0;
    uint64_t probes = 0;            // Disk-path probes (past the filters).
    double probe_ms = 0;
    double merge_ms = 0;
  };

  explicit SpillTier(Options options);
  ~SpillTier();

  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;

  const std::string& dir() const { return options_.dir; }

  /// Seals the concatenation of `slices` (sorted by fingerprint, strictly
  /// increasing, disjoint from every live run) as a new run file and
  /// registers it for probes, without building the concatenation. Empty
  /// input is a no-op; input that is not strictly ascending is a
  /// kInternal error and writes nothing. The blocks are encoded in one
  /// range per `pool` worker (inline when null); the file bytes depend on
  /// neither the split nor the slicing.
  common::Status SealRun(const std::vector<std::span<const Entry>>& slices,
                         common::WorkerPool* pool);

  /// Membership + edge probe across every live run. False means the
  /// fingerprint is definitely absent from disk (or an IO error was
  /// recorded — see status()).
  bool FindOnDisk(uint64_t fp, EdgeData* edge) const;

  /// Batched membership probe: `sorted_fps` must be ascending and
  /// unique. Every live run is swept once — per run, the surviving
  /// (Bloom-positive, not-yet-found) fingerprints walk the block index
  /// monotonically and binary-search each mapped block in place.
  /// (*found)[i] is set to 1 when sorted_fps[i] is on disk, 0 otherwise.
  /// Membership only — edges stay on disk until FindOnDisk needs them.
  void FindBatch(const std::vector<uint64_t>& sorted_fps,
                 std::vector<uint8_t>* found) const;

  /// K-way merges all live runs into one when the run count has reached
  /// kCompactMinRuns; a no-op below it. Runs in the calling thread and
  /// returns once the merged run has replaced its inputs; on an error the
  /// inputs stay live.
  common::Status CompactIfNeeded();

  /// Resume path: opens and validates previously sealed run files (names
  /// within dir, in manifest order). A truncated or garbled file is a
  /// clean kCorruption error. Replaces the current (empty) run list.
  common::Status AdoptRuns(const std::vector<std::string>& files);

  /// Deletes run files retired by compaction since the last purge
  /// (durable mode; no-op otherwise). Call after each manifest
  /// write, once no manifest references them.
  void PurgeRetired();

  /// Live runs in generation order, for checkpoint manifests.
  std::vector<RunInfo> run_infos() const;

  Stats stats() const;

  /// First sticky IO/corruption error observed by any operation
  /// (including const probes). The engine checks this at safe points and
  /// aborts the run instead of diverging.
  common::Status status() const;

 private:
  struct Run;
  class RunBuilder;

  common::Status OpenRun(const std::string& file, std::unique_ptr<Run>* out);
  /// Writes a finished builder as a new run file and maps it.
  common::Status WriteRun(RunBuilder* builder, std::unique_ptr<Run>* out);
  void RecordError(const common::Status& status) const;
  std::string NextRunFile();
  common::Status FindInRun(const Run& run, uint64_t fp, EdgeData* edge) const;

  Options options_;
  // Written only by the exclusive operations (see the class comment).
  std::vector<std::unique_ptr<Run>> runs_;
  uint64_t next_generation_ = 0;
  bool dir_ready_ = false;
  std::vector<std::string> retired_;  // Paths awaiting PurgeRetired().
  uint64_t generations_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t compactions_ = 0;
  int64_t merge_ns_ = 0;

  // Written by overlapping probes.
  mutable std::mutex status_mu_;
  mutable common::Status status_;
  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<int64_t> probe_ns_{0};
};

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_FPSET_SPILL_H_
