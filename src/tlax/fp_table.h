#ifndef XMODEL_TLAX_FP_TABLE_H_
#define XMODEL_TLAX_FP_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xmodel::tlax::internal {

/// One hot record of the fingerprint set: the fingerprint and its
/// discovery edge packed into 32 bytes, two slots per cache line. A slot
/// is empty exactly when kOccupied is clear, so fingerprint 0 is an
/// ordinary key (Fingerprint() is a Mix64 bijection and can produce it).
struct FpSlot {
  static constexpr uint8_t kOccupied = 1;
  /// POR: on a frontier, awaiting expansion.
  static constexpr uint8_t kQueued = 2;

  uint64_t fp = 0;
  uint64_t pred_fp = 0;
  uint64_t order_key = 0;
  int32_t depth = 0;
  uint16_t action = 0;
  uint8_t flags = 0;

  bool occupied() const { return (flags & kOccupied) != 0; }
  bool has(uint8_t flag) const { return (flags & flag) != 0; }
  void set(uint8_t flag, bool on) {
    flags = static_cast<uint8_t>(on ? flags | flag : flags & ~flag);
  }
};
static_assert(sizeof(FpSlot) == 32, "two slots per cache line");

/// Sleep-set POR masks of one record, kept in an array parallel to the
/// slots (same index) that exists only when the table tracks POR.
struct FpPorMasks {
  uint64_t sleep = 0;    // Settled mask expansion reads.
  uint64_t pending = 0;  // sleep ∩ this level's revisit masks.
  uint64_t done = 0;     // Actions already expanded here.
};

/// One FingerprintSet shard's records: a flat open-addressing table with
/// linear probing from the fingerprint's low bits (shards are chosen by
/// the top bits). Capacity is a power of two that doubles before the
/// load passes 7/8. Records are only ever inserted, and Clear drops them
/// all at once, so there are no tombstones and an empty slot always ends
/// a probe. Empty slots are all-zero, so a freshly claimed slot starts
/// zeroed.
///
/// Not thread-safe (the shard mutex guards it). An insert may move
/// records, invalidating every index obtained before it.
class FpTable {
 public:
  static constexpr size_t kNone = SIZE_MAX;
  /// Floor capacity: where a table starts and where Clear returns it.
  static constexpr size_t kMinCapacity = 16;

  /// Allocates the floor capacity. `allocated_bytes`, when non-null, is
  /// adjusted on every allocation change so that it holds the sum of
  /// bytes() over all tables sharing it.
  void Init(bool track_por, std::atomic<size_t>* allocated_bytes) {
    track_por_ = track_por;
    allocated_bytes_ = allocated_bytes;
    Reallocate(kMinCapacity);
  }

  /// Records stored.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Bytes of the slot array plus the POR array when present.
  size_t bytes() const {
    return capacity() *
           (sizeof(FpSlot) + (track_por_ ? sizeof(FpPorMasks) : 0));
  }

  FpSlot& slot(size_t i) { return slots_[i]; }
  const FpSlot& slot(size_t i) const { return slots_[i]; }
  /// Requires track_por.
  FpPorMasks& por(size_t i) { return por_[i]; }

  /// Index of `fp`'s record, or kNone.
  size_t Find(uint64_t fp) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = fp & mask;; i = (i + 1) & mask) {
      const FpSlot& s = slots_[i];
      if (!s.occupied()) return kNone;
      if (s.fp == fp) return i;
    }
  }

  /// Starts loading the line of `fp`'s home slot (and its POR masks), for
  /// writing: a batch issues this a few keys ahead of FindOrInsert so
  /// that their cache misses overlap instead of running one by one.
  void Prefetch(uint64_t fp) const {
    const size_t i = fp & (slots_.size() - 1);
    __builtin_prefetch(&slots_[i], 1);
    if (track_por_) __builtin_prefetch(&por_[i], 1);
  }

  /// Index of `fp`'s record; claims a zeroed, occupied slot for it (and
  /// sets *inserted) when absent, doubling the capacity first if the
  /// insert would push the load past 7/8.
  size_t FindOrInsert(uint64_t fp, bool* inserted) {
    const size_t mask = slots_.size() - 1;
    size_t i = fp & mask;
    for (; slots_[i].occupied(); i = (i + 1) & mask) {
      if (slots_[i].fp == fp) {
        *inserted = false;
        return i;
      }
    }
    *inserted = true;
    if (!Fits(size_ + 1, slots_.size())) {
      Rehash(slots_.size() * 2);
      i = FreeSlotFor(fp);
    }
    slots_[i].fp = fp;
    slots_[i].flags = FpSlot::kOccupied;
    ++size_;
    return i;
  }

  /// Drops every record, back to the floor capacity.
  void Clear() { Reallocate(kMinCapacity); }

  /// Calls fn(slot) for every occupied slot, in slot order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const FpSlot& s : slots_) {
      if (s.occupied()) fn(s);
    }
  }

 private:
  static bool Fits(size_t records, size_t capacity) {
    return records * 8 <= capacity * 7;
  }

  size_t FreeSlotFor(uint64_t fp) const {
    const size_t mask = slots_.size() - 1;
    size_t i = fp & mask;
    while (slots_[i].occupied()) i = (i + 1) & mask;
    return i;
  }

  // Swaps in zeroed arrays of `capacity` slots, handing the old ones to
  // the caller when asked (otherwise they are freed), and accounts the
  // change in allocated bytes.
  void Reallocate(size_t capacity,
                  std::vector<FpSlot>* old_slots = nullptr,
                  std::vector<FpPorMasks>* old_por = nullptr) {
    const size_t old_bytes = bytes();
    std::vector<FpSlot> slots(capacity);
    std::vector<FpPorMasks> por(track_por_ ? capacity : 0);
    slots.swap(slots_);
    por.swap(por_);
    if (old_slots != nullptr) *old_slots = std::move(slots);
    if (old_por != nullptr) *old_por = std::move(por);
    size_ = 0;
    if (allocated_bytes_ != nullptr) {
      // Unsigned wrap-around makes a shrink a subtraction.
      allocated_bytes_->fetch_add(bytes() - old_bytes,
                                  std::memory_order_relaxed);
    }
  }

  void Rehash(size_t capacity) {
    std::vector<FpSlot> old_slots;
    std::vector<FpPorMasks> old_por;
    Reallocate(capacity, &old_slots, &old_por);
    for (size_t k = 0; k < old_slots.size(); ++k) {
      const FpSlot& s = old_slots[k];
      if (!s.occupied()) continue;
      const size_t i = FreeSlotFor(s.fp);
      slots_[i] = s;
      if (track_por_) por_[i] = old_por[k];
      ++size_;
    }
  }

  std::vector<FpSlot> slots_;
  std::vector<FpPorMasks> por_;  // track_por only; parallel to slots_.
  size_t size_ = 0;
  bool track_por_ = false;
  std::atomic<size_t>* allocated_bytes_ = nullptr;
};

}  // namespace xmodel::tlax::internal

#endif  // XMODEL_TLAX_FP_TABLE_H_
