#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <queue>
#include <vector>

namespace pocs::compress {

namespace {

constexpr uint8_t kFlagRaw = 0;
constexpr uint8_t kFlagHuffman = 1;
constexpr int kMaxCodeLen = 32;

// Build Huffman code lengths from symbol frequencies (heap method). If the
// tree would exceed kMaxCodeLen, frequencies are flattened and rebuilt —
// with a 64-bit accumulator and byte inputs this is effectively unreachable
// but keeps the decoder's bounds honest.
std::array<uint8_t, 256> BuildCodeLengths(const std::array<uint64_t, 256>& freq) {
  struct Node {
    uint64_t weight;
    int index;  // < 256: leaf symbol; >= 256: internal
  };
  auto cmp = [](const Node& a, const Node& b) { return a.weight > b.weight; };

  std::array<uint64_t, 256> f = freq;
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
    std::vector<std::pair<int, int>> children;  // internal node -> (l, r)
    children.reserve(256);
    int live = 0;
    for (int s = 0; s < 256; ++s) {
      if (f[s] > 0) {
        heap.push({f[s], s});
        ++live;
      }
    }
    std::array<uint8_t, 256> lengths{};
    if (live == 0) return lengths;
    if (live == 1) {
      lengths[heap.top().index] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      Node a = heap.top();
      heap.pop();
      Node b = heap.top();
      heap.pop();
      int id = 256 + static_cast<int>(children.size());
      children.emplace_back(a.index, b.index);
      heap.push({a.weight + b.weight, id});
    }
    // Depth-first assignment of depths.
    struct Frame { int node; uint8_t depth; };
    std::vector<Frame> stack{{heap.top().index, 0}};
    bool too_deep = false;
    while (!stack.empty()) {
      Frame fr = stack.back();
      stack.pop_back();
      if (fr.node < 256) {
        if (fr.depth > kMaxCodeLen) {
          too_deep = true;
          break;
        }
        lengths[fr.node] = std::max<uint8_t>(fr.depth, 1);
      } else {
        auto [l, r] = children[fr.node - 256];
        stack.push_back({l, static_cast<uint8_t>(fr.depth + 1)});
        stack.push_back({r, static_cast<uint8_t>(fr.depth + 1)});
      }
    }
    if (!too_deep) return lengths;
    for (auto& w : f) {
      if (w > 0) w = (w >> 4) + 1;  // flatten and retry
    }
  }
  // Fallback: fixed 8-bit codes.
  std::array<uint8_t, 256> flat{};
  flat.fill(8);
  return flat;
}

// Canonical code assignment: shorter codes first, ties by symbol value.
void AssignCanonicalCodes(const std::array<uint8_t, 256>& lengths,
                          std::array<uint32_t, 256>* codes) {
  std::vector<int> symbols;
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) symbols.push_back(s);
  }
  std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  uint32_t code = 0;
  uint8_t prev_len = 0;
  for (int s : symbols) {
    code <<= (lengths[s] - prev_len);
    (*codes)[s] = code;
    ++code;
    prev_len = lengths[s];
  }
}

class BitWriter {
 public:
  explicit BitWriter(BufferWriter* out) : out_(out) {}
  void Write(uint32_t code, uint8_t nbits) {
    acc_ = (acc_ << nbits) | code;
    bits_ += nbits;
    while (bits_ >= 8) {
      bits_ -= 8;
      out_->WriteU8(static_cast<uint8_t>(acc_ >> bits_));
    }
  }
  void Flush() {
    if (bits_ > 0) {
      out_->WriteU8(static_cast<uint8_t>(acc_ << (8 - bits_)));
      bits_ = 0;
    }
  }

 private:
  BufferWriter* out_;
  uint64_t acc_ = 0;
  int bits_ = 0;
};

}  // namespace

Bytes HuffmanEncode(ByteSpan input) {
  std::array<uint64_t, 256> freq{};
  for (uint8_t b : input) ++freq[b];
  auto lengths = BuildCodeLengths(freq);

  uint64_t coded_bits = 0;
  for (int s = 0; s < 256; ++s) coded_bits += freq[s] * lengths[s];
  size_t coded_bytes = (coded_bits + 7) / 8 + 256 + 16;

  BufferWriter out(input.size() + 16);
  if (input.size() < 64 || coded_bytes >= input.size()) {
    out.WriteU8(kFlagRaw);
    out.WriteVarint(input.size());
    out.WriteBytes(input);
    return std::move(out).Take();
  }

  std::array<uint32_t, 256> codes{};
  AssignCanonicalCodes(lengths, &codes);

  out.WriteU8(kFlagHuffman);
  out.WriteVarint(input.size());
  out.WriteBytes(lengths.data(), 256);
  BitWriter bits(&out);
  for (uint8_t b : input) bits.Write(codes[b], lengths[b]);
  bits.Flush();
  return std::move(out).Take();
}

namespace {

// Decoding tables for one coded stream, built in O(256 + 2^kLutBits).
// Canonical codes of one length are consecutive integers, so a code of
// length l decodes as symbols[first_index[l] + (code - first_code[l])].
// Codes of length <= kLutBits also resolve in one probe of `lut`.
constexpr int kLutBits = 12;

struct DecodeTables {
  // (symbol << 8) | length for every kLutBits-bit window that starts
  // with a code of length <= kLutBits; 0 where a longer code or none
  // starts.
  std::array<uint16_t, size_t{1} << kLutBits> lut{};
  std::array<uint32_t, kMaxCodeLen + 1> first_code{};
  std::array<uint32_t, kMaxCodeLen + 1> count{};
  std::array<uint32_t, kMaxCodeLen + 1> first_index{};
  std::array<uint8_t, 256> symbols{};  // ordered by (length, symbol)
  int max_len = 0;
};

Status BuildDecodeTables(ByteSpan lengths, DecodeTables* t) {
  for (uint8_t len : lengths) {
    if (len > kMaxCodeLen) return Status::Corruption("huffman: bad length");
    ++t->count[len];
  }
  t->count[0] = 0;
  uint64_t code = 0;
  uint32_t index = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    // Kraft: the length-l codes must fit in the 2^l code space. An
    // over-subscribed table yields canonical codes wider than their
    // length, which would index past the LUT below.
    if (code + t->count[l] > (uint64_t{1} << l)) {
      return Status::Corruption("huffman: over-subscribed code lengths");
    }
    t->first_code[l] = static_cast<uint32_t>(code);
    t->first_index[l] = index;
    if (t->count[l] != 0) t->max_len = l;
    code = (code + t->count[l]) << 1;
    index += t->count[l];
  }
  // Counting sort by length; ties stay in symbol order.
  std::array<uint32_t, kMaxCodeLen + 1> next = t->first_index;
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] != 0) {
      t->symbols[next[lengths[s]]++] = static_cast<uint8_t>(s);
    }
  }
  // Left-aligned to kLutBits, the canonical codes of length <= kLutBits
  // tile a prefix of the window space in (length, symbol) order.
  size_t fill = 0;
  for (int l = 1; l <= std::min(t->max_len, kLutBits); ++l) {
    const size_t span = size_t{1} << (kLutBits - l);
    for (uint32_t i = 0; i < t->count[l]; ++i) {
      const auto entry =
          static_cast<uint16_t>(t->symbols[t->first_index[l] + i] << 8 | l);
      std::fill_n(t->lut.begin() + fill, span, entry);
      fill += span;
    }
  }
  return Status::OK();
}

// Resolves a code longer than kLutBits at the top of the left-aligned
// window `w`, of which the top `valid` bits are stream bits. Returns the
// code length, or 0 if no code of at most `valid` bits starts the window.
inline int DecodeLong(const DecodeTables& t, uint64_t w, uint32_t valid,
                      uint8_t* symbol) {
  const int max_len = std::min(t.max_len, static_cast<int>(valid));
  for (int l = kLutBits + 1; l <= max_len; ++l) {
    const uint32_t offset =
        static_cast<uint32_t>(w >> (64 - l)) - t.first_code[l];
    if (offset < t.count[l]) {
      *symbol = t.symbols[t.first_index[l] + offset];
      return l;
    }
  }
  return 0;
}

inline uint64_t LoadBE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);  // host is little-endian (see buffer.h)
}

}  // namespace

Result<Bytes> HuffmanDecode(ByteSpan input) {
  BufferReader in(input);
  POCS_ASSIGN_OR_RETURN(uint8_t flag, in.ReadU8());
  POCS_ASSIGN_OR_RETURN(uint64_t orig_size, in.ReadVarint());
  if (flag == kFlagRaw) {
    POCS_ASSIGN_OR_RETURN(ByteSpan raw, in.ReadSpan(orig_size));
    if (!in.exhausted()) return Status::Corruption("huffman: trailing bytes");
    return Bytes(raw.begin(), raw.end());
  }
  if (flag != kFlagHuffman) return Status::Corruption("huffman: bad flag");

  POCS_ASSIGN_OR_RETURN(ByteSpan lengths, in.ReadSpan(256));
  DecodeTables t;
  POCS_RETURN_NOT_OK(BuildDecodeTables(lengths, &t));
  if (t.max_len == 0 && orig_size != 0) {
    return Status::Corruption("huffman: no codes");
  }
  POCS_ASSIGN_OR_RETURN(ByteSpan payload, in.ReadSpan(in.remaining()));
  // Every symbol costs at least one bit.
  if (orig_size > uint64_t{8} * payload.size()) {
    return Status::Corruption("huffman: size exceeds payload");
  }

  // Sized once (orig_size is bounded by the payload above) and filled by
  // index.
  Bytes out(orig_size);
  uint8_t* dst = out.data();
  size_t produced = 0;
  const uint8_t* const data = payload.data();
  const uint8_t* const end = data + payload.size();
  // The next `bits` stream bits sit at the top of `window`; the stream
  // bits that follow start at byte `p`. Bits below them are zero or are
  // already the bits of `p` onward, so a refill may OR them in again.
  const uint8_t* p = data;
  uint64_t window = 0;
  uint32_t bits = 0;

  // Word loop: one 64-bit load tops the window up to at least 56 bits,
  // enough for four LUT probes (<= 48 bits) or one code longer than the
  // LUT (<= 32 bits), resolved in place. The load's address does not
  // depend on the probes, so the refill stays off the decode's critical
  // path.
  while (produced + 4 <= orig_size && end - p >= 8) {
    window |= LoadBE64(p) >> bits;
    p += (63 - bits) >> 3;
    bits |= 56;
    int probes = 0;
    for (; probes < 4; ++probes) {
      const uint16_t entry = t.lut[window >> (64 - kLutBits)];
      if (entry == 0) break;
      dst[produced++] = static_cast<uint8_t>(entry >> 8);
      window <<= entry & 63;
      bits -= entry & 63;
    }
    if (probes == 0) {
      const int len = DecodeLong(t, window, bits, dst + produced);
      if (len == 0) return Status::Corruption("huffman: invalid code");
      ++produced;
      window <<= len;
      bits -= static_cast<uint32_t>(len);
    }
  }
  // Tail: the last few symbols, and all within the final 8 input bytes,
  // refilled one byte at a time.
  while (produced < orig_size) {
    for (; bits <= 56 && p < end; bits += 8) {
      window |= static_cast<uint64_t>(*p++) << (56 - bits);
    }
    const uint16_t entry = t.lut[window >> (64 - kLutBits)];
    int len = entry & 63;
    if (entry != 0) {
      dst[produced] = static_cast<uint8_t>(entry >> 8);
    } else {
      len = DecodeLong(t, window, bits, dst + produced);
    }
    if (len == 0 || static_cast<uint32_t>(len) > bits) {
      return Status::Corruption("huffman: truncated or invalid code");
    }
    ++produced;
    window <<= len;
    bits -= static_cast<uint32_t>(len);
  }
  // The stream ends at its last code, padded to a byte with zero bits.
  const uint64_t pad = static_cast<uint64_t>(end - p) * 8 + bits;
  if (pad >= 8 || (pad > 0 && (end[-1] & ((1u << pad) - 1)) != 0)) {
    return Status::Corruption("huffman: trailing bits");
  }
  return out;
}

}  // namespace pocs::compress
