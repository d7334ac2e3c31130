#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <queue>
#include <vector>

#include "common/check.h"

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

class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}
  // Read one bit; returns -1 past end.
  int ReadBit() {
    size_t byte = pos_ >> 3;
    if (byte >= data_.size()) return -1;
    int bit = (data_[byte] >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return bit;
  }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
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

Result<Bytes> HuffmanDecode(ByteSpan input) {
  BufferReader in(input);
  POCS_ASSIGN_OR_RETURN(uint8_t flag, in.ReadU8());
  POCS_ASSIGN_OR_RETURN(uint64_t orig_size, in.ReadVarint());
  if (flag == kFlagRaw) {
    POCS_ASSIGN_OR_RETURN(ByteSpan raw, in.ReadSpan(orig_size));
    return Bytes(raw.begin(), raw.end());
  }
  if (flag != kFlagHuffman) return Status::Corruption("huffman: bad flag");

  std::array<uint8_t, 256> lengths{};
  POCS_RETURN_NOT_OK(in.ReadBytes(lengths.data(), 256));
  for (uint8_t len : lengths) {
    if (len > kMaxCodeLen) return Status::Corruption("huffman: bad length");
  }
  // Canonical decoding tables: first code and first symbol index per length.
  std::vector<int> sorted_symbols;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    for (int s = 0; s < 256; ++s) {
      if (lengths[s] == l) sorted_symbols.push_back(s);
    }
  }
  if (sorted_symbols.empty()) {
    if (orig_size != 0) return Status::Corruption("huffman: no codes");
    return Bytes{};
  }
  std::array<uint32_t, kMaxCodeLen + 2> first_code{};
  std::array<uint32_t, kMaxCodeLen + 2> first_index{};
  std::array<uint32_t, kMaxCodeLen + 1> count{};
  for (int s = 0; s < 256; ++s) {
    if (lengths[s]) ++count[lengths[s]];
  }
  uint64_t code = 0;
  uint32_t index = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    // Kraft: the length-l codes must fit in the 2^l code space. An
    // over-subscribed table yields canonical codes wider than their
    // length, which would index past the LUT below.
    if (code + count[l] > (uint64_t{1} << l)) {
      return Status::Corruption("huffman: over-subscribed code lengths");
    }
    first_code[l] = static_cast<uint32_t>(code);
    first_index[l] = index;
    code = (code + count[l]) << 1;
    index += count[l];
  }

  POCS_ASSIGN_OR_RETURN(ByteSpan payload, in.ReadSpan(in.remaining()));
  // Every symbol costs at least one bit.
  if (orig_size > uint64_t{8} * payload.size()) {
    return Status::Corruption("huffman: size exceeds payload");
  }

  // Fast path: a 2^kLutBits lookup table decodes any code of length ≤
  // kLutBits in one probe; longer codes fall back to canonical scanning.
  constexpr int kLutBits = 12;
  struct LutEntry {
    uint8_t symbol = 0;
    uint8_t length = 0;  // 0 = not decodable via LUT
  };
  std::vector<LutEntry> lut(size_t{1} << kLutBits);
  {
    std::array<uint32_t, 256> codes{};
    AssignCanonicalCodes(lengths, &codes);
    for (int s = 0; s < 256; ++s) {
      if (lengths[s] == 0 || lengths[s] > kLutBits) continue;
      uint32_t base = codes[s] << (kLutBits - lengths[s]);
      uint32_t fills = 1u << (kLutBits - lengths[s]);
      for (uint32_t f = 0; f < fills; ++f) {
        lut[base + f] = {static_cast<uint8_t>(s), lengths[s]};
      }
    }
  }

  // Sized once (orig_size is bounded by the payload above) and filled by
  // index: with push_back, GCC 12 compiled this loop about 2x slower.
  Bytes out(orig_size);
  size_t produced = 0;
  const uint8_t* data = payload.data();
  const size_t nbytes = payload.size();
  uint64_t acc = 0;    // bit accumulator, MSB-first
  int acc_bits = 0;
  size_t byte_pos = 0;
  const uint64_t total_bits = nbytes * 8;
  uint64_t consumed_bits = 0;

  while (produced < orig_size) {
    // Refill so the accumulator holds at least kMaxCodeLen bits (or all
    // that remain).
    while (acc_bits <= 56 && byte_pos < nbytes) {
      acc = (acc << 8) | data[byte_pos++];
      acc_bits += 8;
    }
    if (consumed_bits >= total_bits) {
      return Status::Corruption("huffman: truncated stream");
    }
    uint32_t window =
        acc_bits >= kLutBits
            ? static_cast<uint32_t>((acc >> (acc_bits - kLutBits)) &
                                    ((1u << kLutBits) - 1))
            : static_cast<uint32_t>((acc << (kLutBits - acc_bits)) &
                                    ((1u << kLutBits) - 1));
    const LutEntry entry = lut[window];
    if (entry.length != 0 && entry.length <= acc_bits &&
        consumed_bits + entry.length <= total_bits) {
      out[produced++] = entry.symbol;
      acc_bits -= entry.length;
      consumed_bits += entry.length;
      continue;
    }
    // Slow path: scan lengths beyond the LUT (or near end of stream).
    uint32_t c = 0;
    int len = 0;
    int sym = -1;
    while (len < kMaxCodeLen) {
      if (acc_bits == 0) {
        if (byte_pos < nbytes) {
          acc = (acc << 8) | data[byte_pos++];
          acc_bits += 8;
        } else {
          return Status::Corruption("huffman: truncated stream");
        }
      }
      if (consumed_bits >= total_bits) {
        return Status::Corruption("huffman: truncated stream");
      }
      uint32_t bit =
          static_cast<uint32_t>((acc >> (acc_bits - 1)) & 1);
      --acc_bits;
      ++consumed_bits;
      c = (c << 1) | bit;
      ++len;
      uint32_t offset = c - first_code[len];
      if (c >= first_code[len] && offset < count[len]) {
        // first_index/count are built from the same lengths histogram, so
        // the index is in range for any count-passing code.
        POCS_DCHECK_LT(first_index[len] + offset, sorted_symbols.size());
        sym = sorted_symbols[first_index[len] + offset];
        break;
      }
    }
    if (sym < 0) return Status::Corruption("huffman: invalid code");
    out[produced++] = static_cast<uint8_t>(sym);
  }
  return out;
}

}  // namespace pocs::compress
