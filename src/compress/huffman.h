// Canonical Huffman coding over the byte alphabet — the entropy stage of
// deflate-lite and zs-lite. The encoded block stores the 256 code lengths
// followed by the bit stream; a degenerate block (single distinct symbol,
// or codes that would not shrink the data) is stored raw with a flag byte.
#pragma once

#include "common/buffer.h"
#include "common/status.h"

namespace pocs::compress {

// Encode `input`; self-framing (flag byte + optional lengths table).
Bytes HuffmanEncode(ByteSpan input);

// Decode a block produced by HuffmanEncode. The block must end with its
// stream: a raw block at its last byte, a coded one within its last byte,
// padded with zero bits.
Result<Bytes> HuffmanDecode(ByteSpan input);

}  // namespace pocs::compress
