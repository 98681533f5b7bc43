#ifndef XMODEL_TLAX_FRONTIER_SPILL_H_
#define XMODEL_TLAX_FRONTIER_SPILL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "tlax/explore.h"

namespace xmodel::tlax::internal {

/// Disk overflow for a frontier queue: a bounded in-memory tail plus a
/// FIFO of sealed segment files, each one batch of serialized
/// LevelEntry records (full state bytes + fingerprint + depth + key).
/// The engine keeps one spool per run (the portion of the current BFS
/// level beyond the in-memory head chunk). Entries come back in exactly
/// the order they were appended, so replay preserves the settled sort
/// order and results stay bit-identical with or without spill.
///
/// Not internally synchronized: the spool has a single owner (the
/// barrier thread). Two narrow exceptions: segments_written() is an
/// atomic read any thread may make, and PopBatch keeps a one-segment
/// async read-ahead in flight — the prefetch thread only reads a sealed,
/// immutable segment file that stays live (never retired) until the
/// owner pops it.
///
/// Segment files are written atomically (temp + rename) and carry a
/// count and fingerprint checksum, so a truncated or garbled file on
/// resume is a clean kCorruption error. Consumed files are deleted
/// immediately unless Options::durable — checkpointing defers so a
/// manifest never points at a file removed before the next manifest
/// lands (PurgeConsumed runs after each manifest write).
class FrontierSpool {
 public:
  struct Options {
    std::string dir;
    /// Entries per sealed segment (the replay IO granularity).
    size_t segment_entries = 4096;
    /// Checkpoint durability: fsync segment files, and keep consumed ones
    /// until PurgeConsumed().
    bool durable = false;
  };

  explicit FrontierSpool(Options options);
  ~FrontierSpool();

  /// Spools the entries `entries` points at, in order, after the tail,
  /// sealing full segments; the entries left past the last one are moved
  /// into the tail, the sealed ones are left as they are. Each segment is
  /// encoded and written by one task on `pool` (inline when null — a
  /// caller that is itself a pool task passes null); segment bytes and
  /// boundaries do not depend on the pool.
  common::Status Append(std::span<LevelEntry* const> entries,
                        common::WorkerPool* pool);

  /// Pops the oldest batch in FIFO order: the front segment file
  /// (decoded and consumed), else the in-memory tail. Empty `out` with
  /// OK status means the spool is empty. When the popped segment was
  /// read ahead by the previous call the decode cost is already paid;
  /// either way a new read-ahead of the next segment starts before
  /// returning, overlapping its IO with the caller's expansion work.
  common::Status PopBatch(std::vector<LevelEntry>* out);

  /// Flushes the in-memory tail to a segment file (checkpoint prep).
  common::Status Seal();

  /// Entries currently spooled (sealed segments + tail).
  size_t size() const { return spooled_ + tail_.size(); }
  bool empty() const { return size() == 0; }

  /// Cumulative segment files written (monotone; feeds
  /// checker.spill.frontier_segments). Safe from any thread.
  uint64_t segments_written() const {
    return segments_written_.load(std::memory_order_relaxed);
  }

  /// Live (unconsumed) segment files in FIFO order, for manifests.
  /// Call Seal() first so the tail is included.
  std::vector<std::string> live_segment_files() const;

  /// Resume path: validates and enqueues previously sealed segments (in
  /// manifest order), adding their entry total to `*entries`. Corrupt or
  /// truncated files are a clean kCorruption error.
  common::Status AdoptSegments(const std::vector<std::string>& files,
                               uint64_t* entries);

  /// Deletes segment files consumed since the last purge
  /// (durable mode; no-op otherwise).
  void PurgeConsumed();

 private:
  struct Segment {
    std::string file;
    uint64_t count = 0;
  };

  /// Encodes `entries` and writes them as segment `file`.
  common::Status WriteSegment(std::span<LevelEntry* const> entries,
                              const std::string& file) const;
  /// Seals every whole `segment_size` run of `stream` as a segment file
  /// (one task each on `pool`), in order.
  common::Status SealSegments(std::span<LevelEntry* const> stream,
                              size_t segment_size, common::WorkerPool* pool);
  common::Status ReadSegment(const std::string& file,
                             std::vector<LevelEntry>* out) const;
  void Retire(const std::string& file);
  /// Starts the async read-ahead of the front segment (no-op when the
  /// spool has no sealed segments or a read-ahead is already in flight).
  void StartPrefetch();

  Options options_;
  std::deque<Segment> segments_;
  std::vector<LevelEntry> tail_;
  std::vector<std::string> consumed_;
  uint64_t next_segment_ = 0;
  std::atomic<uint64_t> segments_written_{0};
  uint64_t spooled_ = 0;
  bool dir_ready_ = false;
  // One-slot read-ahead (owner-thread state; only the decode itself is
  // off-thread).
  std::string prefetch_file_;
  std::future<std::pair<common::Status, std::vector<LevelEntry>>> prefetch_;
};

}  // namespace xmodel::tlax::internal

#endif  // XMODEL_TLAX_FRONTIER_SPILL_H_
