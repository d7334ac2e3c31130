// Parameterized LZ77 core shared by all codecs. Sequence stream format:
//   repeat: lit_len:varint  literals[lit_len]  match_len:varint
//           [offset:varint if match_len > 0]
// match_len == 0 terminates a sequence without a match (end of stream or
// pure-literal tail). Minimum real match length is params.min_match;
// match_len stores (length - min_match + 1) so 0 stays the sentinel.
#pragma once

#include <cstdint>

#include "common/buffer.h"
#include "common/status.h"

namespace pocs::compress {

struct Lz77Params {
  int hash_bits = 14;        // size of the match-candidate hash table
  uint32_t window = 1 << 15; // max match distance
  uint32_t min_match = 4;    // min match length worth encoding
  bool lazy = false;         // one-step-lazy matching (better parses)
};

// Compress input into the sequence stream (no size header; callers frame).
Bytes Lz77Compress(ByteSpan input, const Lz77Params& params);

// Decompress a sequence stream; `expected_size` bounds the output and is
// validated (corrupt streams yield Corruption, never overflow). The stream
// must end at its terminator.
Result<Bytes> Lz77Decompress(ByteSpan input, size_t expected_size,
                             const Lz77Params& params);

// Split-stream variant (Zstd-style): sequences are emitted into four
// independent streams — literal lengths, match lengths, offsets, literal
// bytes — so a downstream entropy stage can code each distribution
// separately. Layout:
//   n_seq:varint  4 × (stream_len:varint stream_bytes)
// in the order litlens, matchlens, offsets, literals.
Bytes Lz77CompressSplit(ByteSpan input, const Lz77Params& params);

// The split layout's sequence count and streams, once the caller has
// unframed (and entropy-decoded) them.
struct Lz77SplitStreams {
  uint64_t n_seq = 0;
  ByteSpan litlens;
  ByteSpan matchlens;
  ByteSpan offsets;
  ByteSpan literals;
};

// Runs the n_seq sequences; only the last may be the terminator, and every
// stream must be consumed exactly.
Result<Bytes> Lz77DecompressSplit(const Lz77SplitStreams& streams,
                                  size_t expected_size,
                                  const Lz77Params& params);

}  // namespace pocs::compress
