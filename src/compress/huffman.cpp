#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <queue>
#include <vector>

namespace pocs::compress {

namespace {

constexpr uint8_t kFlagRaw = 0;
constexpr uint8_t kFlagLanes = 2;
// Longest code: every code resolves in one probe of a 2^kLutBits table.
constexpr int kLutBits = 12;
constexpr int kLanes = 4;

// Huffman code lengths from symbol frequencies (heap method), limited to
// kLutBits. The tree's depth counts are adjusted as in JPEG Annex K.3 (and
// zlib): two codes of the deepest length become one code a level up plus
// one moved below a shorter code, which keeps the code complete. The
// counts are then handed out shortest first to the most frequent symbols
// (ties by symbol value), which for an unlimited tree costs exactly what
// its own depths cost.
std::array<uint8_t, 256> BuildCodeLengths(const std::array<uint64_t, 256>& freq) {
  struct Node {
    uint64_t weight;
    int index;  // < 256: leaf symbol; >= 256: internal
  };
  auto cmp = [](const Node& a, const Node& b) { return a.weight > b.weight; };

  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<std::pair<int, int>> children;  // internal node -> (l, r)
  children.reserve(256);
  std::vector<int> symbols;  // by descending frequency, then symbol
  for (int s = 0; s < 256; ++s) {
    if (freq[s] > 0) {
      heap.push({freq[s], s});
      symbols.push_back(s);
    }
  }
  std::array<uint8_t, 256> lengths{};
  if (symbols.empty()) return lengths;
  if (symbols.size() == 1) {
    lengths[symbols[0]] = 1;
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
  // Codes per tree depth; 256 leaves are at most 255 deep.
  std::array<uint32_t, 256> count{};
  int max_len = 0;
  struct Frame { int node; int depth; };
  std::vector<Frame> stack{{heap.top().index, 0}};
  while (!stack.empty()) {
    Frame fr = stack.back();
    stack.pop_back();
    if (fr.node < 256) {
      ++count[fr.depth];
      max_len = std::max(max_len, fr.depth);
    } else {
      auto [l, r] = children[fr.node - 256];
      stack.push_back({l, fr.depth + 1});
      stack.push_back({r, fr.depth + 1});
    }
  }
  // A complete code has an even count at its deepest length. A shorter
  // code (j < l - 1) always exists: 256 codes of length >= kLutBits - 1
  // cannot fill the code space.
  for (int l = max_len; l > kLutBits; --l) {
    while (count[l] > 0) {
      int j = l - 2;
      while (count[j] == 0) --j;
      count[l] -= 2;
      count[l - 1] += 1;
      count[j + 1] += 2;
      count[j] -= 1;
    }
  }
  std::stable_sort(symbols.begin(), symbols.end(),
                   [&](int a, int b) { return freq[a] > freq[b]; });
  auto next = symbols.begin();
  for (int l = 1; l <= kLutBits; ++l) {
    for (uint32_t i = 0; i < count[l]; ++i) {
      lengths[*next++] = static_cast<uint8_t>(l);
    }
  }
  return lengths;
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

// Lane i of an n-symbol block holds symbols [i*q, min((i+1)*q, n)) with
// q = ceil(n / 4); trailing lanes of a short block are empty.
struct LaneSpan {
  uint64_t begin;
  uint64_t size;
};
LaneSpan LaneOf(uint64_t n, int lane) {
  const uint64_t q = n / kLanes + (n % kLanes != 0);
  const uint64_t begin = std::min(q * static_cast<uint64_t>(lane), n);
  return {begin, std::min(q, n - begin)};
}

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

  std::array<ByteSpan, kLanes> lanes;
  for (int i = 0; i < kLanes; ++i) {
    const LaneSpan span = LaneOf(input.size(), i);
    lanes[i] = input.subspan(span.begin, span.size);
  }
  out.WriteU8(kFlagLanes);
  out.WriteVarint(input.size());
  out.WriteBytes(lengths.data(), 256);
  for (int i = 0; i + 1 < kLanes; ++i) {
    uint64_t lane_bits = 0;
    for (uint8_t b : lanes[i]) lane_bits += lengths[b];
    out.WriteVarint((lane_bits + 7) / 8);
  }
  BitWriter bits(&out);
  for (ByteSpan lane : lanes) {
    for (uint8_t b : lane) bits.Write(codes[b], lengths[b]);
    bits.Flush();
  }
  return std::move(out).Take();
}

namespace {

// Decoding table for one coded block, built in O(256 + 2^kLutBits): for
// every kLutBits-bit window, (symbol << 8) | kValid | length of the code
// that starts it, or 0 where no code does (an incomplete code's tail).
// kValid sits above the six bits a 64-bit shift reads, so the probe's
// `entry & 63` is the length and costs no mask.
constexpr uint16_t kValid = 0x40;
using DecodeTable = std::array<uint16_t, size_t{1} << kLutBits>;

// Returns the number of codes.
Result<int> BuildDecodeTable(ByteSpan lengths, DecodeTable* lut) {
  std::array<uint32_t, kLutBits + 1> count{};
  for (uint8_t len : lengths) {
    if (len > kLutBits) return Status::Corruption("huffman: bad length");
    ++count[len];
  }
  count[0] = 0;
  // Kraft: the length-l codes must fit in the 2^l code space. An
  // over-subscribed table yields canonical codes wider than their
  // length, which would index past the table below.
  uint64_t code = 0;
  for (int l = 1; l <= kLutBits; ++l) {
    if (code + count[l] > (uint64_t{1} << l)) {
      return Status::Corruption("huffman: over-subscribed code lengths");
    }
    code = (code + count[l]) << 1;
  }
  // Counting sort by (length, symbol): canonical order.
  std::array<uint32_t, kLutBits + 1> next{};
  std::exclusive_scan(count.begin(), count.end(), next.begin(), 0u);
  std::array<uint8_t, 256> symbols{};
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] != 0) {
      symbols[next[lengths[s]]++] = static_cast<uint8_t>(s);
    }
  }
  // Left-aligned to kLutBits, the canonical codes tile a prefix of the
  // window space in (length, symbol) order.
  const int codes = static_cast<int>(next[kLutBits]);
  size_t fill = 0;
  for (int i = 0; i < codes; ++i) {
    const int l = lengths[symbols[i]];
    const size_t span = size_t{1} << (kLutBits - l);
    const auto entry = static_cast<uint16_t>(symbols[i] << 8 | kValid | l);
    std::fill_n(lut->begin() + fill, span, entry);
    fill += span;
  }
  return codes;
}

inline uint64_t LoadBE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);  // host is little-endian (see buffer.h)
}

// One table probe at the top of `window`: emits a symbol, consumes its
// code and returns the entry. An invalid entry emits junk and consumes
// nothing, so every later probe of the same window returns it too.
inline uint32_t Probe(const DecodeTable& lut, uint64_t& window, uint8_t* dst) {
  const uint32_t entry = lut[window >> (64 - kLutBits)];
  *dst = static_cast<uint8_t>(entry >> 8);
  window <<= entry & 63;
  return entry;
}

// Decodes a lane's last symbols, [dst, dst_end), from bit `skip` of byte
// `p` up to `end`, refilling one byte at a time, then checks that the
// lane ends at its last code, padded to a byte with zero bits.
Status DecodeLaneTail(const DecodeTable& lut, const uint8_t* p, uint32_t skip,
                      const uint8_t* end, uint8_t* dst, uint8_t* dst_end) {
  // The next `bits` lane bits sit at the top of `window`, zeros below;
  // the bits that follow start at byte `p`.
  uint64_t window = 0;
  uint32_t bits = 0;
  if (skip != 0) {
    window = static_cast<uint64_t>(*p++) << (56 + skip);
    bits = 8 - skip;
  }
  for (; dst < dst_end; ++dst) {
    for (; bits <= 56 && p < end; bits += 8) {
      window |= static_cast<uint64_t>(*p++) << (56 - bits);
    }
    const uint16_t entry = lut[window >> (64 - kLutBits)];
    const uint32_t len = entry & 15;
    if (entry == 0 || len > bits) {
      return Status::Corruption("huffman: truncated or invalid code");
    }
    *dst = static_cast<uint8_t>(entry >> 8);
    window <<= len;
    bits -= len;
  }
  const uint64_t pad = static_cast<uint64_t>(end - p) * 8 + bits;
  if (pad >= 8 || (pad > 0 && (end[-1] & ((1u << pad) - 1)) != 0)) {
    return Status::Corruption("huffman: trailing bits");
  }
  return Status::OK();
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
  if (flag != kFlagLanes) return Status::Corruption("huffman: bad flag");

  POCS_ASSIGN_OR_RETURN(ByteSpan lengths, in.ReadSpan(256));
  DecodeTable lut{};
  POCS_ASSIGN_OR_RETURN(int codes, BuildDecodeTable(lengths, &lut));
  if (codes == 0 && orig_size != 0) {
    return Status::Corruption("huffman: no codes");
  }
  std::array<uint64_t, kLanes - 1> lane_bytes{};
  for (uint64_t& bytes : lane_bytes) {
    POCS_ASSIGN_OR_RETURN(bytes, in.ReadVarint());
  }
  POCS_ASSIGN_OR_RETURN(ByteSpan payload, in.ReadSpan(in.remaining()));
  // Every symbol costs at least one bit.
  if (orig_size > uint64_t{8} * payload.size()) {
    return Status::Corruption("huffman: size exceeds payload");
  }
  // Lane i is payload bytes [edge[i], edge[i + 1]): lanes 0-2 as
  // declared, lane 3 the rest.
  std::array<uint64_t, kLanes + 1> edge{};
  for (int i = 0; i + 1 < kLanes; ++i) {
    if (lane_bytes[i] > payload.size() - edge[i]) {
      return Status::Corruption("huffman: lane lengths exceed payload");
    }
    edge[i + 1] = edge[i] + lane_bytes[i];
  }
  edge[kLanes] = payload.size();

  // Sized once (orig_size is bounded by the payload above) and filled by
  // index, each lane into its own range.
  Bytes out(orig_size);
  std::array<uint8_t*, kLanes> dst{};
  for (int i = 0; i < kLanes; ++i) {
    dst[i] = out.data() + LaneOf(orig_size, i).begin;
  }
  uint8_t *const d0 = dst[0], *const d1 = dst[1], *const d2 = dst[2],
                 *const d3 = dst[3];

  // Four lanes side by side, each with its state in two scalars: its bit
  // position in the payload and its window. A round reloads each window
  // from its position (at least 57 valid bits) and takes four probes from
  // it (at most 48 bits), so the four lanes' probe chains overlap. Bit 0
  // of a window is never probed; set, it counts the bits a round consumed
  // as the window's trailing zeros. A round needs an 8-byte load inside
  // each lane and four symbols left in each (lane 3 has the fewest), and
  // advances a lane at most 6 bytes, so the rounds are run in batches
  // that cannot cross either limit.
  const uint8_t* const data = payload.data();
  const auto load_limit = [&edge](int i) -> uint64_t {
    return edge[i + 1] - edge[i] >= 8 ? edge[i + 1] - 7 : 0;
  };
  const uint64_t lim0 = load_limit(0), lim1 = load_limit(1),
                 lim2 = load_limit(2), lim3 = load_limit(3);
  uint64_t pos0 = 0, pos1 = 8 * edge[1], pos2 = 8 * edge[2],
           pos3 = 8 * edge[3];
  const uint64_t lane3_size = LaneOf(orig_size, kLanes - 1).size;
  uint64_t k = 0;  // symbols decoded per lane
  for (;;) {
    uint64_t rounds = (lane3_size - k) / 4;
    for (const auto& [pos, lim] : {std::pair{pos0, lim0}, std::pair{pos1, lim1},
                                   std::pair{pos2, lim2}, std::pair{pos3, lim3}}) {
      const uint64_t byte = pos >> 3;
      rounds = byte < lim ? std::min(rounds, (lim - byte + 5) / 6) : 0;
    }
    if (rounds == 0) break;
    for (const uint64_t stop = k + 4 * rounds; k < stop; k += 4) {
      uint64_t w0 = LoadBE64(data + (pos0 >> 3)) << (pos0 & 7) | 1;
      uint64_t w1 = LoadBE64(data + (pos1 >> 3)) << (pos1 & 7) | 1;
      uint64_t w2 = LoadBE64(data + (pos2 >> 3)) << (pos2 & 7) | 1;
      uint64_t w3 = LoadBE64(data + (pos3 >> 3)) << (pos3 & 7) | 1;
      uint32_t e0 = 0, e1 = 0, e2 = 0, e3 = 0;
      for (int j = 0; j < 4; ++j) {
        e0 = Probe(lut, w0, d0 + k + j);
        e1 = Probe(lut, w1, d1 + k + j);
        e2 = Probe(lut, w2, d2 + k + j);
        e3 = Probe(lut, w3, d3 + k + j);
      }
      // An invalid entry repeats to its lane's last probe: one check.
      if ((e0 & e1 & e2 & e3 & kValid) == 0) {
        return Status::Corruption("huffman: invalid code");
      }
      pos0 += static_cast<uint64_t>(__builtin_ctzll(w0));
      pos1 += static_cast<uint64_t>(__builtin_ctzll(w1));
      pos2 += static_cast<uint64_t>(__builtin_ctzll(w2));
      pos3 += static_cast<uint64_t>(__builtin_ctzll(w3));
    }
  }
  const std::array<uint64_t, kLanes> pos{pos0, pos1, pos2, pos3};
  for (int i = 0; i < kLanes; ++i) {
    POCS_RETURN_NOT_OK(DecodeLaneTail(
        lut, data + (pos[i] >> 3), static_cast<uint32_t>(pos[i] & 7),
        data + edge[i + 1], dst[i] + k, dst[i] + LaneOf(orig_size, i).size));
  }
  return out;
}

}  // namespace pocs::compress
