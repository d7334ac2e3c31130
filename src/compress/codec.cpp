#include "compress/codec.h"

#include "compress/huffman.h"
#include "compress/lz77.h"

namespace pocs::compress {

std::string_view CodecName(CodecType type) {
  switch (type) {
    case CodecType::kNone: return "none";
    case CodecType::kFastLz: return "fastlz";
    case CodecType::kDeflateLite: return "deflate-lite";
    case CodecType::kZsLite: return "zs-lite";
  }
  return "?";
}

Result<CodecType> CodecFromName(std::string_view name) {
  if (name == "none") return CodecType::kNone;
  if (name == "fastlz" || name == "snappy") return CodecType::kFastLz;
  if (name == "deflate-lite" || name == "gzip") return CodecType::kDeflateLite;
  if (name == "zs-lite" || name == "zstd") return CodecType::kZsLite;
  return Status::InvalidArgument("unknown codec: " + std::string(name));
}

namespace {

// Framing shared by all codecs: original size varint, then payload.
Bytes FrameSize(size_t original, Bytes payload) {
  BufferWriter out(payload.size() + 8);
  out.WriteVarint(original);
  out.WriteBytes(payload.data(), payload.size());
  return std::move(out).Take();
}

class NoneCodec final : public Codec {
 public:
  CodecType type() const override { return CodecType::kNone; }
  Bytes Compress(ByteSpan input) const override {
    return FrameSize(input.size(), Bytes(input.begin(), input.end()));
  }
  Result<Bytes> Decompress(ByteSpan input) const override {
    BufferReader in(input);
    POCS_ASSIGN_OR_RETURN(uint64_t n, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(ByteSpan raw, in.ReadSpan(n));
    if (!in.exhausted()) return Status::Corruption("none: trailing bytes");
    return Bytes(raw.begin(), raw.end());
  }
};

class LzCodec final : public Codec {
 public:
  LzCodec(CodecType type, Lz77Params params, bool entropy)
      : type_(type), params_(params), entropy_(entropy) {}

  CodecType type() const override { return type_; }

  Bytes Compress(ByteSpan input) const override {
    Bytes lz = Lz77Compress(input, params_);
    if (entropy_) lz = HuffmanEncode(ByteSpan(lz.data(), lz.size()));
    return FrameSize(input.size(), std::move(lz));
  }

  Result<Bytes> Decompress(ByteSpan input) const override {
    BufferReader in(input);
    POCS_ASSIGN_OR_RETURN(uint64_t orig, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(ByteSpan payload, in.ReadSpan(in.remaining()));
    if (entropy_) {
      POCS_ASSIGN_OR_RETURN(Bytes lz, HuffmanDecode(payload));
      return Lz77Decompress(ByteSpan(lz.data(), lz.size()), orig, params_);
    }
    return Lz77Decompress(payload, orig, params_);
  }

 private:
  CodecType type_;
  Lz77Params params_;
  bool entropy_;
};

// Zstd-style codec: split-stream LZ77 parse, then an independent Huffman
// pass per stream (literal lengths / match lengths / offsets / literals
// have very different byte distributions; coding them separately is where
// most of the ratio win over deflate-lite comes from).
class SplitLzCodec final : public Codec {
 public:
  SplitLzCodec(CodecType type, Lz77Params params)
      : type_(type), params_(params) {}

  CodecType type() const override { return type_; }

  Bytes Compress(ByteSpan input) const override {
    Bytes split = Lz77CompressSplit(input, params_);
    // Re-frame: Huffman each of the four length-prefixed streams.
    BufferReader in(split.data(), split.size());
    uint64_t n_seq = in.ReadVarint().value_or(0);
    BufferWriter out(split.size() / 2 + 32);
    out.WriteVarint(n_seq);
    for (int s = 0; s < 4; ++s) {
      uint64_t len = in.ReadVarint().value_or(0);
      ByteSpan stream = in.ReadSpan(len).value_or(ByteSpan{});
      Bytes coded = HuffmanEncode(stream);
      out.WriteVarint(coded.size());
      out.WriteBytes(coded.data(), coded.size());
    }
    return FrameSize(input.size(), std::move(out).Take());
  }

  Result<Bytes> Decompress(ByteSpan input) const override {
    BufferReader in(input);
    POCS_ASSIGN_OR_RETURN(uint64_t orig, in.ReadVarint());
    Lz77SplitStreams split;
    POCS_ASSIGN_OR_RETURN(split.n_seq, in.ReadVarint());
    Bytes streams[4];
    for (Bytes& stream : streams) {
      POCS_ASSIGN_OR_RETURN(uint64_t coded_len, in.ReadVarint());
      POCS_ASSIGN_OR_RETURN(ByteSpan coded, in.ReadSpan(coded_len));
      POCS_ASSIGN_OR_RETURN(stream, HuffmanDecode(coded));
    }
    if (!in.exhausted()) return Status::Corruption("zs-lite: trailing bytes");
    split.litlens = streams[0];
    split.matchlens = streams[1];
    split.offsets = streams[2];
    split.literals = streams[3];
    return Lz77DecompressSplit(split, orig, params_);
  }

 private:
  CodecType type_;
  Lz77Params params_;
};

}  // namespace

const Codec& GetCodec(CodecType type) {
  static const NoneCodec none;
  static const LzCodec fastlz(
      CodecType::kFastLz,
      Lz77Params{.hash_bits = 13, .window = 1u << 13, .min_match = 4,
                 .lazy = false},
      /*entropy=*/false);
  static const LzCodec deflate_lite(
      CodecType::kDeflateLite,
      Lz77Params{.hash_bits = 15, .window = 1u << 15, .min_match = 4,
                 .lazy = false},
      /*entropy=*/true);
  static const SplitLzCodec zs_lite(
      CodecType::kZsLite,
      Lz77Params{.hash_bits = 17, .window = 1u << 17, .min_match = 4,
                 .lazy = true});
  switch (type) {
    case CodecType::kNone: return none;
    case CodecType::kFastLz: return fastlz;
    case CodecType::kDeflateLite: return deflate_lite;
    case CodecType::kZsLite: return zs_lite;
  }
  return none;
}

}  // namespace pocs::compress
