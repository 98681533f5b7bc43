#ifndef XMODEL_COMMON_VARINT_H_
#define XMODEL_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace xmodel::common {

// LEB128 variable-length integer codec, the byte layout every on-disk
// artifact of the out-of-core checker shares: sealed fingerprint runs
// (delta-encoded sorted u64s), edge sidecars, frontier spill segments,
// and the state serializer. Small values cost one byte; a full 64-bit
// value costs ten. Decoding is bounds- and overflow-checked so a
// truncated or corrupted file surfaces as a clean decode failure, never
// as undefined behavior.

/// Appends the LEB128 encoding of `v` to `*out` (1..10 bytes).
inline void PutVarint64(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Decodes one LEB128 value from `data` starting at `*pos`, advancing
/// `*pos` past it. Returns false (leaving `*pos` unspecified) on
/// truncation or on an encoding longer than 64 bits.
inline bool GetVarint64(std::string_view data, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= data.size()) return false;
    const uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical 10th bytes that would overflow 64 bits.
      if (shift == 63 && byte > 1) return false;
      *v = result;
      return true;
    }
  }
  return false;
}

/// ZigZag mapping so small negative integers stay short under LEB128:
/// 0, -1, 1, -2, ... map to 0, 1, 2, 3, ...
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void PutVarintSigned(int64_t v, std::string* out) {
  PutVarint64(ZigZagEncode(v), out);
}

inline bool GetVarintSigned(std::string_view data, size_t* pos, int64_t* v) {
  uint64_t raw = 0;
  if (!GetVarint64(data, pos, &raw)) return false;
  *v = ZigZagDecode(raw);
  return true;
}

/// Little-endian fixed-width u64, for fields that are incompressible
/// (fingerprints used as block restart points, checksums).
inline void PutFixed64(uint64_t v, std::string* out) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(bytes, sizeof(bytes));
}

inline bool GetFixed64(std::string_view data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(static_cast<uint8_t>(data[*pos + static_cast<size_t>(i)]))
              << (8 * i);
  }
  *pos += 8;
  *v = result;
  return true;
}

}  // namespace xmodel::common

#endif  // XMODEL_COMMON_VARINT_H_
