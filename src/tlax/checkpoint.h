#ifndef XMODEL_TLAX_CHECKPOINT_H_
#define XMODEL_TLAX_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tlax/fpset_spill.h"

namespace xmodel::tlax {

/// Everything a killed run needs to resume with identical results: the
/// sealed fingerprint runs (the whole seen-set — the hot table is
/// evicted before a checkpoint), the sealed frontier segments, the
/// monotone counters and the initial states (trace replay roots).
/// Serialized as `<dir>/MANIFEST.json`, written atomically and durably,
/// so the manifest on disk is always the last complete one.
struct CheckpointManifest {
  static constexpr const char* kSchema = "xmodel.checkpoint.v2";

  // Monotone run counters at the checkpoint barrier.
  uint64_t generated = 0;
  uint64_t distinct = 0;
  int64_t diameter = 0;
  uint64_t levels_completed = 0;
  uint64_t frontier_peak = 0;
  uint64_t slept = 0;
  uint64_t checkpoints = 0;  // Ordinal of this manifest (1-based).

  // Fingerprint-set disk tier: every sealed run, in generation order.
  std::vector<SpillTier::RunInfo> runs;

  // Frontier segments in FIFO order: the sealed next level.
  std::vector<std::string> frontier;
  uint64_t frontier_total = 0;

  // Raw EncodeState blobs (hex in the JSON) of the initial states, for
  // trace reconstruction after resume.
  std::vector<std::string> initial_states;
};

/// Writes `<dir>/MANIFEST.json` atomically (temp + rename, fsync'd when
/// `durable`). The previous manifest stays intact until the rename.
common::Status WriteCheckpointManifest(const std::string& dir,
                                       const CheckpointManifest& manifest,
                                       bool durable);

/// Reads and validates `<dir>/MANIFEST.json`. Missing file is a clean
/// kNotFound; a garbled or wrong-schema file is kCorruption (naming the
/// schema found and the one expected), and so is a run or frontier entry
/// that is not a plain file name of its tier, `run-NNNNNN.run` or
/// `seg-NNNNNN.seg` (naming the entry): the names are untrusted input
/// that resume opens and compaction deletes.
common::Status ReadCheckpointManifest(const std::string& dir,
                                      CheckpointManifest* manifest);

/// --resume: deletes every run and segment file (by the names above) in
/// `dir` that `manifest` does not name, i.e. what the killed run sealed after its last
/// manifest. Other files are left alone; a missing `dir` is OK.
common::Status DropCheckpointOrphans(const std::string& dir,
                                     const CheckpointManifest& manifest);

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_CHECKPOINT_H_
