#include "compress/lz77.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

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

namespace {

// Up-front output size. The frame's declared size is untrusted until the
// stream has decoded to it, so the first allocation is capped by a
// multiple of the input; a frame that expands further (long runs) still
// decodes, by doubling, and the per-sequence checks stop growth past
// `expected_size`.
size_t ReserveBound(uint64_t expected_size, size_t input_size) {
  constexpr uint64_t kMaxRatio = 64;
  constexpr uint64_t kSlack = 64 << 10;
  return static_cast<size_t>(
      std::min<uint64_t>(expected_size, input_size * kMaxRatio + kSlack));
}

struct Cursor {
  const uint8_t* p;
  const uint8_t* end;

  explicit Cursor(ByteSpan span)
      : p(span.data()), end(span.data() + span.size()) {}
  size_t remaining() const { return static_cast<size_t>(end - p); }

  // LEB128 with BufferReader::ReadVarint's limits: at most ten bytes.
  bool ReadVarint(uint64_t* v) {
    if (p != end && *p < 0x80) {
      *v = *p++;
      return true;
    }
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const uint8_t b = *p++;
      result |= static_cast<uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        *v = result;
        return true;
      }
    }
    return false;
  }
};

// Where each sequence field is read from. The split layout has four
// streams; the interleaved layout points all four at one cursor, whose
// bytes then follow the read order lit_len, literals, match_len, offset.
struct SequenceSource {
  Cursor* litlens;
  Cursor* matchlens;
  Cursor* offsets;
  Cursor* literals;
};

constexpr size_t kWideCopy = 16;

// Grows `out` to hold at least `needed` bytes (<= expected_size) by
// doubling, never past expected_size.
void Grow(Bytes* out, size_t needed, size_t expected_size) {
  const size_t doubled =
      out->size() > expected_size / 2 ? expected_size : 2 * out->size();
  out->resize(std::max(doubled, needed));
}

// The sequence executor shared by both layouts. It runs `n_seq`
// sequences, or until a terminator when n_seq is unset, and requires
// every cursor to end exhausted and the output to reach expected_size.
// Each sequence is one literal memcpy and one match copy into an output
// sized once, growing only past ReserveBound.
Result<Bytes> ExecuteSequences(const SequenceSource& in,
                               std::optional<uint64_t> n_seq,
                               size_t expected_size, size_t input_size,
                               uint32_t min_match) {
  Bytes out(ReserveBound(expected_size, input_size));
  uint8_t* base = out.data();
  size_t size = out.size();
  size_t pos = 0;

  for (uint64_t s = 0; !n_seq || s < *n_seq; ++s) {
    uint64_t lit_len = 0;
    if (!in.litlens->ReadVarint(&lit_len)) {
      return Status::Corruption("lz77: truncated literal length");
    }
    if (lit_len > in.literals->remaining() || lit_len > expected_size - pos) {
      return Status::Corruption("lz77: literal run overflows output");
    }
    if (lit_len != 0) {
      if (lit_len > size - pos) {
        Grow(&out, pos + lit_len, expected_size);
        base = out.data();
        size = out.size();
      }
      // A short run copies one fixed-width block when both sides have the
      // room; the bytes written past the run are rewritten by what follows.
      if (lit_len <= kWideCopy && in.literals->remaining() >= kWideCopy &&
          size - pos >= kWideCopy) {
        std::memcpy(base + pos, in.literals->p, kWideCopy);
      } else {
        std::memcpy(base + pos, in.literals->p, lit_len);
      }
      in.literals->p += lit_len;
      pos += lit_len;
    }

    uint64_t mlen_enc = 0;
    if (!in.matchlens->ReadVarint(&mlen_enc)) {
      return Status::Corruption("lz77: truncated match length");
    }
    if (mlen_enc == 0) {
      if (n_seq && s + 1 != *n_seq) {
        return Status::Corruption("lz77: early terminator");
      }
      break;
    }
    uint64_t offset = 0;
    if (!in.offsets->ReadVarint(&offset)) {
      return Status::Corruption("lz77: truncated offset");
    }
    if (offset == 0 || offset > pos) {
      return Status::Corruption("lz77: bad match offset");
    }
    // mlen = mlen_enc + min_match - 1, compared without overflow.
    if (mlen_enc > expected_size - pos ||
        expected_size - pos - mlen_enc < min_match - 1) {
      return Status::Corruption("lz77: match overflows output");
    }
    const size_t mlen = mlen_enc + min_match - 1;
    if (mlen > size - pos) {
      Grow(&out, pos + mlen, expected_size);
      base = out.data();
      size = out.size();
    }
    uint8_t* dst = base + pos;
    const uint8_t* src = dst - offset;
    if (offset >= kWideCopy && size - pos - mlen >= kWideCopy - 1) {
      // Blocks of one width never overlap themselves at this offset.
      for (size_t i = 0; i < mlen; i += kWideCopy) {
        std::memcpy(dst + i, src + i, kWideCopy);
      }
    } else {
      // Each copy reads from the match source up to the bytes written so
      // far; that distance is a whole number of periods, so an overlapping
      // (RLE-style) match takes log2(mlen / offset) copies.
      for (size_t done = 0; done < mlen;) {
        const size_t n = std::min<size_t>(mlen - done, offset + done);
        std::memcpy(dst + done, src, n);
        done += n;
      }
    }
    pos += mlen;
  }
  for (const Cursor* c : {in.litlens, in.matchlens, in.offsets, in.literals}) {
    if (c->remaining() != 0) return Status::Corruption("lz77: trailing bytes");
  }
  if (pos != expected_size) return Status::Corruption("lz77: size mismatch");
  return out;
}

}  // namespace

Result<Bytes> Lz77Decompress(ByteSpan input, size_t expected_size,
                             const Lz77Params& params) {
  Cursor stream(input);
  return ExecuteSequences({&stream, &stream, &stream, &stream}, std::nullopt,
                          expected_size, input.size(), params.min_match);
}

Result<Bytes> Lz77DecompressSplit(const Lz77SplitStreams& streams,
                                  size_t expected_size,
                                  const Lz77Params& params) {
  Cursor litlens(streams.litlens);
  Cursor matchlens(streams.matchlens);
  Cursor offsets(streams.offsets);
  Cursor literals(streams.literals);
  const size_t input_size = streams.litlens.size() + streams.matchlens.size() +
                            streams.offsets.size() + streams.literals.size();
  return ExecuteSequences({&litlens, &matchlens, &offsets, &literals},
                          streams.n_seq, expected_size, input_size,
                          params.min_match);
}

}  // namespace pocs::compress
