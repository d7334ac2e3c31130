// The one integrity checksum: IPC streams (every OcsResult payload) on
// the wire, and Parquet-lite chunks and footers in the object store. Keys
// and fingerprints use HashBytes (common/hash.h) instead; its values are
// pinned elsewhere.
//
// xxHash64-shaped: four independent 64-bit lanes consume 32-byte stripes,
// so the multiplies of one stripe overlap and the loop runs at memory
// speed rather than at one dependent multiply chain's latency. Every
// step — each lane round, the lane merge, each tail fold and the final
// avalanche — is a bijection of the running state when its other inputs
// are fixed, and each round and fold is also a bijection of the word it
// folds in. So two inputs of equal length that differ within one folded
// unit (an 8-byte word, the 4-byte tail word or one tail byte) never
// collide: a one-byte corruption is always detected.
//
// Values are serialized into file and wire formats: the algorithm and
// its constants are part of those formats (little-endian hosts only, as
// everywhere in common/buffer.h).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/buffer.h"

namespace pocs {

namespace checksum_internal {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint64_t Round(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kP2, 31) * kP1;
}

}  // namespace checksum_internal

inline uint64_t Checksum64(ByteSpan data) {
  using namespace checksum_internal;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = kP1 + kP2;
    uint64_t v2 = kP2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kP1;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
      n -= 32;
    } while (n >= 32);
    // A sum of rotations: a bijection of each lane for the other three.
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
  } else {
    h = kP5;
  }
  h += data.size();
  for (; n >= 8; p += 8, n -= 8) {
    h = std::rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
  }
  if (n >= 4) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    h = std::rotl(h ^ (uint64_t{w} * kP1), 23) * kP2 + kP3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h = std::rotl(h ^ (uint64_t{*p} * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace pocs
