// Non-cryptographic hashing for keys and fingerprints: hash aggregation
// and join keys, bloom filters, statistics NDV tracking, cache keys, plan
// fingerprints and RPC flow ids. A 64-bit mix based on the
// splitmix64/xxhash finalizer family: well-distributed and stable across
// platforms. Its values are pinned — plan fingerprints, the fault plan's
// content-keyed flow ids and the bench baseline's codecs.*.decoded_hash
// all depend on them — so it stays as it is. HashBytes chains every word
// through one dependent multiply sequence; integrity checks over stored
// and shipped bytes use the 4-lane Checksum64 (common/checksum.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace pocs {

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return Mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

// Streaming-free one-shot hash over raw bytes.
inline uint64_t HashBytes(const void* data, size_t n, uint64_t seed = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed ^ (n * 0x9e3779b97f4a7c15ULL);
  while (n >= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    h = HashCombine(h, Mix64(k));
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < n; ++i) tail |= static_cast<uint64_t>(p[i]) << (8 * i);
  if (n > 0) h = HashCombine(h, Mix64(tail));
  return Mix64(h);
}

inline uint64_t HashString(std::string_view s, uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), seed);
}

template <typename T>
inline uint64_t HashValue(const T& v, uint64_t seed = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  return HashBytes(&v, sizeof(T), seed);
}

}  // namespace pocs
