#include "compress/lz77.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace pocs::compress {

namespace {

inline uint32_t HashWindow(const uint8_t* p, int hash_bits) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - hash_bits);
}

// Length of the common prefix of a and b, bounded by limit.
inline uint32_t MatchLength(const uint8_t* a, const uint8_t* b,
                            uint32_t limit) {
  uint32_t n = 0;
  while (n + 8 <= limit) {
    uint64_t xa, xb;
    std::memcpy(&xa, a + n, 8);
    std::memcpy(&xb, b + n, 8);
    uint64_t diff = xa ^ xb;
    if (diff) return n + static_cast<uint32_t>(__builtin_ctzll(diff) >> 3);
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

struct Match {
  uint32_t length = 0;
  uint32_t offset = 0;
};

inline int VarintLen(uint32_t v) {
  int n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Hash-head + chain matcher. Greedy codecs search only the chain head;
// the lazy codec (zs-lite) walks a bounded chain for a better parse.
class Matcher {
 public:
  Matcher(const uint8_t* base, size_t size, const Lz77Params& params)
      : base_(base), size_(size), params_(params),
        table_(size_t{1} << params.hash_bits, kEmpty),
        chain_(params.lazy ? size : 0, kEmpty),
        max_depth_(params.lazy ? 32 : 1) {}

  Match Find(uint32_t pos) const {
    Match m;
    if (pos + params_.min_match > size_) return m;
    uint32_t cand = table_[HashWindow(base_ + pos, params_.hash_bits)];
    const uint32_t limit = static_cast<uint32_t>(size_ - pos);
    // Cost-aware selection: a match must beat the literals it replaces,
    // including its offset's varint footprint. gain = len - offset_bytes.
    int best_gain = 0;
    for (int depth = 0; depth < max_depth_; ++depth) {
      if (cand == kEmpty || cand >= pos || pos - cand > params_.window) break;
      uint32_t len = MatchLength(base_ + cand, base_ + pos, limit);
      int gain = static_cast<int>(len) - VarintLen(pos - cand);
      if (gain > best_gain) {
        best_gain = gain;
        m.length = len;
        m.offset = pos - cand;
        if (len >= 128) break;  // long enough; stop searching
      }
      if (chain_.empty()) break;
      cand = chain_[cand];
    }
    if (m.length < params_.min_match ||
        best_gain < static_cast<int>(params_.min_match)) {
      m = Match{};
    }
    return m;
  }

  void Insert(uint32_t pos) {
    if (pos + 4 <= size_) {
      uint32_t& head = table_[HashWindow(base_ + pos, params_.hash_bits)];
      if (!chain_.empty()) chain_[pos] = head;
      head = pos;
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  const uint8_t* base_;
  size_t size_;
  Lz77Params params_;
  std::vector<uint32_t> table_;
  std::vector<uint32_t> chain_;
  int max_depth_;
};

}  // namespace

namespace {

struct Sequence {
  uint32_t lit_start;
  uint32_t lit_len;
  uint32_t match_len;  // 0 only for the terminal sequence
  uint32_t offset;
};

std::vector<Sequence> ParseSequences(ByteSpan input, const Lz77Params& params) {
  std::vector<Sequence> seqs;
  const uint8_t* base = input.data();
  const size_t n = input.size();
  Matcher matcher(base, n, params);

  uint32_t pos = 0;
  uint32_t lit_start = 0;
  while (pos < n) {
    Match m = matcher.Find(pos);
    if (params.lazy && m.length >= params.min_match && pos + 1 < n) {
      // One-step lazy evaluation: prefer a strictly longer match at pos+1.
      matcher.Insert(pos);
      Match next = matcher.Find(pos + 1);
      if (next.length > m.length + 1) {
        ++pos;
        continue;
      }
    }
    if (m.length >= params.min_match) {
      seqs.push_back({lit_start, pos - lit_start, m.length, m.offset});
      // Index positions inside the match sparsely (every other byte) —
      // full indexing costs more than it gains at these window sizes.
      uint32_t end = pos + m.length;
      for (uint32_t p = pos; p < end; p += 2) matcher.Insert(p);
      pos = end;
      lit_start = pos;
    } else {
      matcher.Insert(pos);
      ++pos;
    }
  }
  seqs.push_back({lit_start, static_cast<uint32_t>(n) - lit_start, 0, 0});
  return seqs;
}

// Copy a back-reference onto the tail of `out`. Non-overlapping matches
// use one bulk copy; overlapping ones (RLE-style) replicate the period.
// Callers must have validated offset/mlen against the stream (Status on
// corrupt input); the DCHECKs pin that contract in debug builds.
void AppendMatch(Bytes* out, uint64_t offset, uint64_t mlen) {
  POCS_DCHECK_GT(offset, 0u);
  POCS_DCHECK_LE(offset, out->size());
  const size_t old_size = out->size();
  out->resize(old_size + mlen);
  uint8_t* dst = out->data() + old_size;
  const uint8_t* src = out->data() + old_size - offset;
  if (offset >= mlen) {
    std::memcpy(dst, src, mlen);
    return;
  }
  // Overlapping (RLE-style): each byte may source from bytes just
  // written, which is the LZ77 semantic — byte loop required.
  const uint8_t* lag = dst - offset;
  for (uint64_t i = 0; i < mlen; ++i) dst[i] = lag[i];
}

// Up-front output reservation. The frame's declared size is untrusted until
// the stream has decoded to it, so the reservation is capped by a multiple
// of the input; a frame that expands further (long runs) still decodes, by
// ordinary vector growth, and the per-sequence checks stop growth past
// `expected_size`.
size_t ReserveBound(uint64_t expected_size, size_t input_size) {
  constexpr uint64_t kMaxRatio = 64;
  constexpr uint64_t kSlack = 64 << 10;
  return static_cast<size_t>(
      std::min<uint64_t>(expected_size, input_size * kMaxRatio + kSlack));
}

}  // namespace

Bytes Lz77Compress(ByteSpan input, const Lz77Params& params) {
  BufferWriter out(input.size() / 2 + 16);
  const uint8_t* base = input.data();
  for (const Sequence& s : ParseSequences(input, params)) {
    out.WriteVarint(s.lit_len);
    out.WriteBytes(base + s.lit_start, s.lit_len);
    if (s.match_len == 0) {
      out.WriteVarint(0);
    } else {
      out.WriteVarint(s.match_len - params.min_match + 1);
      out.WriteVarint(s.offset);
    }
  }
  return std::move(out).Take();
}

Bytes Lz77CompressSplit(ByteSpan input, const Lz77Params& params) {
  std::vector<Sequence> seqs = ParseSequences(input, params);
  BufferWriter litlens, matchlens, offsets, literals;
  const uint8_t* base = input.data();
  for (const Sequence& s : seqs) {
    litlens.WriteVarint(s.lit_len);
    if (s.match_len == 0) {
      matchlens.WriteVarint(0);
    } else {
      matchlens.WriteVarint(s.match_len - params.min_match + 1);
      offsets.WriteVarint(s.offset);
    }
    literals.WriteBytes(base + s.lit_start, s.lit_len);
  }
  BufferWriter out(input.size() / 2 + 32);
  out.WriteVarint(seqs.size());
  for (BufferWriter* stream : {&litlens, &matchlens, &offsets, &literals}) {
    out.WriteVarint(stream->size());
    out.WriteBytes(stream->span());
  }
  return std::move(out).Take();
}

Result<Bytes> Lz77DecompressSplit(ByteSpan input, size_t expected_size,
                                  const Lz77Params& params) {
  BufferReader in(input);
  POCS_ASSIGN_OR_RETURN(uint64_t n_seq, in.ReadVarint());
  ByteSpan streams[4];
  for (auto& stream : streams) {
    POCS_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(stream, in.ReadSpan(len));
  }
  if (!in.exhausted()) return Status::Corruption("lz77-split: trailing bytes");
  BufferReader litlens(streams[0]);
  BufferReader matchlens(streams[1]);
  BufferReader offsets(streams[2]);
  BufferReader literals(streams[3]);

  Bytes out;
  out.reserve(ReserveBound(expected_size, input.size()));
  for (uint64_t s = 0; s < n_seq; ++s) {
    POCS_ASSIGN_OR_RETURN(uint64_t lit_len, litlens.ReadVarint());
    if (out.size() + lit_len > expected_size) {
      return Status::Corruption("lz77-split: literal overflow");
    }
    POCS_ASSIGN_OR_RETURN(ByteSpan lits, literals.ReadSpan(lit_len));
    out.insert(out.end(), lits.begin(), lits.end());
    POCS_ASSIGN_OR_RETURN(uint64_t mlen_enc, matchlens.ReadVarint());
    if (mlen_enc == 0) {
      if (s + 1 != n_seq) return Status::Corruption("lz77-split: early end");
      break;
    }
    uint64_t mlen = mlen_enc + params.min_match - 1;
    POCS_ASSIGN_OR_RETURN(uint64_t offset, offsets.ReadVarint());
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("lz77-split: bad offset");
    }
    if (out.size() + mlen > expected_size) {
      return Status::Corruption("lz77-split: match overflow");
    }
    AppendMatch(&out, offset, mlen);
  }
  if (out.size() != expected_size) {
    return Status::Corruption("lz77-split: size mismatch");
  }
  return out;
}

Result<Bytes> Lz77Decompress(ByteSpan input, size_t expected_size,
                             const Lz77Params& params) {
  Bytes out;
  out.reserve(ReserveBound(expected_size, input.size()));
  BufferReader in(input);
  while (true) {
    POCS_ASSIGN_OR_RETURN(uint64_t lit_len, in.ReadVarint());
    if (lit_len > in.remaining() || out.size() + lit_len > expected_size) {
      return Status::Corruption("lz77: literal run overflows output");
    }
    POCS_ASSIGN_OR_RETURN(ByteSpan lits, in.ReadSpan(lit_len));
    out.insert(out.end(), lits.begin(), lits.end());

    POCS_ASSIGN_OR_RETURN(uint64_t mlen_enc, in.ReadVarint());
    if (mlen_enc == 0) {
      if (in.exhausted() && out.size() == expected_size) break;
      if (out.size() != expected_size || !in.exhausted()) {
        return Status::Corruption("lz77: stream/size mismatch at terminator");
      }
      break;
    }
    uint64_t mlen = mlen_enc + params.min_match - 1;
    POCS_ASSIGN_OR_RETURN(uint64_t offset, in.ReadVarint());
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("lz77: bad match offset");
    }
    if (out.size() + mlen > expected_size) {
      return Status::Corruption("lz77: match overflows output");
    }
    AppendMatch(&out, offset, mlen);
  }
  return out;
}

}  // namespace pocs::compress
