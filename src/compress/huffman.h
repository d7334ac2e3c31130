// Canonical Huffman coding over the byte alphabet — the entropy stage of
// deflate-lite and zs-lite. A coded block stores the 256 code lengths (at
// most 12 bits each), the byte lengths of lanes 0-2, then four lanes that
// each hold a quarter of the symbols and decode independently; a
// degenerate block (short input, or codes that would not shrink the data)
// is stored raw with a flag byte.
#pragma once

#include "common/buffer.h"
#include "common/status.h"

namespace pocs::compress {

// Encode `input`; self-framing (flag byte + optional lengths table).
Bytes HuffmanEncode(ByteSpan input);

// Decode a block produced by HuffmanEncode. The block must end with its
// stream: a raw block at its last byte, each lane of a coded one within
// its last byte, padded with zero bits.
Result<Bytes> HuffmanDecode(ByteSpan input);

}  // namespace pocs::compress
