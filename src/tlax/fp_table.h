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

  uint64_t fp = 0;
  uint64_t pred_fp = 0;
  uint64_t order_key = 0;
  int32_t depth = 0;
  uint16_t action = 0;
  uint8_t flags = 0;

  bool occupied() const { return (flags & kOccupied) != 0; }
};
static_assert(sizeof(FpSlot) == 32, "two slots per cache line");

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
  void Init(std::atomic<size_t>* allocated_bytes) {
    allocated_bytes_ = allocated_bytes;
    Reallocate(kMinCapacity);
  }

  /// Records stored.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Bytes of the slot array.
  size_t bytes() const { return capacity() * sizeof(FpSlot); }

  FpSlot& slot(size_t i) { return slots_[i]; }
  const FpSlot& slot(size_t i) const { return slots_[i]; }

  /// Index of `fp`'s record, or kNone.
  size_t Find(uint64_t fp) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = fp & mask;; i = (i + 1) & mask) {
      const FpSlot& s = slots_[i];
      if (!s.occupied()) return kNone;
      if (s.fp == fp) return i;
    }
  }

  /// Starts loading the line of `fp`'s home slot, for writing: a batch
  /// issues this a few keys ahead of FindOrInsert so that their cache
  /// misses overlap instead of running one by one.
  void Prefetch(uint64_t fp) const {
    const size_t i = fp & (slots_.size() - 1);
    __builtin_prefetch(&slots_[i], 1);
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

  // Swaps in a zeroed array of `capacity` slots, handing the old one to
  // the caller when asked (otherwise it is freed), and accounts the
  // change in allocated bytes.
  void Reallocate(size_t capacity,
                  std::vector<FpSlot>* old_slots = nullptr) {
    const size_t old_bytes = bytes();
    std::vector<FpSlot> slots(capacity);
    slots.swap(slots_);
    if (old_slots != nullptr) *old_slots = std::move(slots);
    size_ = 0;
    if (allocated_bytes_ != nullptr) {
      // Unsigned wrap-around makes a shrink a subtraction.
      allocated_bytes_->fetch_add(bytes() - old_bytes,
                                  std::memory_order_relaxed);
    }
  }

  void Rehash(size_t capacity) {
    std::vector<FpSlot> old_slots;
    Reallocate(capacity, &old_slots);
    for (const FpSlot& s : old_slots) {
      if (!s.occupied()) continue;
      slots_[FreeSlotFor(s.fp)] = s;
      ++size_;
    }
  }

  std::vector<FpSlot> slots_;
  size_t size_ = 0;
  std::atomic<size_t>* allocated_bytes_ = nullptr;
};

}  // namespace xmodel::tlax::internal

#endif  // XMODEL_TLAX_FP_TABLE_H_
