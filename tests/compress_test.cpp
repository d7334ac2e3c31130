// Tests for the compression stack: LZ77 core, Huffman stage, and the three
// composed codecs. Includes property sweeps over data distributions,
// corruption injection, and a differential sweep of seeded mutants against
// a compact bit-serial reference decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <random>
#include <string>

#include "compress/codec.h"
#include "compress/huffman.h"
#include "compress/lz77.h"

namespace pocs::compress {
namespace {

Bytes MakeRepetitive(size_t n) {
  Bytes data;
  data.reserve(n);
  const char* pattern = "sensor_reading,timestep,value;";
  while (data.size() < n) {
    for (const char* p = pattern; *p && data.size() < n; ++p) {
      data.push_back(static_cast<uint8_t>(*p));
    }
  }
  return data;
}

Bytes MakeRandom(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng());
  return data;
}

// Float-heavy "scientific" data: doubles from a smooth function, produced
// at float32 precision and widened to float64 (zero low-mantissa bytes) —
// the layout simulation snapshot columns typically have, and the
// distribution that Fig. 6's datasets present to the codecs.
Bytes MakeScientific(size_t n_doubles) {
  Bytes data;
  data.reserve(n_doubles * 8);
  for (size_t i = 0; i < n_doubles; ++i) {
    double v = static_cast<double>(
        static_cast<float>(0.5 + 0.3 * std::sin(i * 0.001)));
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    data.insert(data.end(), p, p + 8);
  }
  return data;
}

TEST(Lz77Test, RoundtripRepetitive) {
  Lz77Params params;
  Bytes input = MakeRepetitive(10000);
  Bytes comp = Lz77Compress(ByteSpan(input.data(), input.size()), params);
  EXPECT_LT(comp.size(), input.size() / 3) << "repetitive data should shrink";
  auto out = Lz77Decompress(ByteSpan(comp.data(), comp.size()), input.size(),
                            params);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, input);
}

TEST(Lz77Test, RoundtripRandomIncompressible) {
  Lz77Params params;
  Bytes input = MakeRandom(5000, 1);
  Bytes comp = Lz77Compress(ByteSpan(input.data(), input.size()), params);
  auto out = Lz77Decompress(ByteSpan(comp.data(), comp.size()), input.size(),
                            params);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Lz77Test, EmptyAndTinyInputs) {
  Lz77Params params;
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7}}) {
    Bytes input = MakeRandom(n, 99);
    Bytes comp = Lz77Compress(ByteSpan(input.data(), input.size()), params);
    auto out = Lz77Decompress(ByteSpan(comp.data(), comp.size()), n, params);
    ASSERT_TRUE(out.ok()) << "n=" << n;
    EXPECT_EQ(*out, input);
  }
}

TEST(Lz77Test, OverlappingMatchRle) {
  // A run of one byte forces overlapping matches (offset 1).
  Lz77Params params;
  Bytes input(10000, 0xAB);
  Bytes comp = Lz77Compress(ByteSpan(input.data(), input.size()), params);
  EXPECT_LT(comp.size(), 100u);
  auto out = Lz77Decompress(ByteSpan(comp.data(), comp.size()), input.size(),
                            params);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Lz77Test, WrongExpectedSizeIsCorruption) {
  Lz77Params params;
  Bytes input = MakeRepetitive(1000);
  Bytes comp = Lz77Compress(ByteSpan(input.data(), input.size()), params);
  auto out = Lz77Decompress(ByteSpan(comp.data(), comp.size()),
                            input.size() - 1, params);
  EXPECT_FALSE(out.ok());
}

TEST(Lz77Test, LazyParsesAtLeastAsSmall) {
  Bytes input = MakeScientific(20000);
  Lz77Params greedy{.hash_bits = 15, .window = 1u << 15, .min_match = 4,
                    .lazy = false};
  Lz77Params lazy{.hash_bits = 15, .window = 1u << 15, .min_match = 4,
                  .lazy = true};
  Bytes cg = Lz77Compress(ByteSpan(input.data(), input.size()), greedy);
  Bytes cl = Lz77Compress(ByteSpan(input.data(), input.size()), lazy);
  auto out = Lz77Decompress(ByteSpan(cl.data(), cl.size()), input.size(), lazy);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
  // Lazy matching should not be much worse; usually better.
  EXPECT_LE(cl.size(), cg.size() + cg.size() / 10);
}

TEST(HuffmanTest, RoundtripSkewedDistribution) {
  std::mt19937 rng(3);
  Bytes input(20000);
  for (auto& b : input) b = static_cast<uint8_t>(rng() % 8);  // 8 symbols
  Bytes enc = HuffmanEncode(ByteSpan(input.data(), input.size()));
  EXPECT_LT(enc.size(), input.size() / 2) << "3-bit entropy should shrink";
  auto dec = HuffmanDecode(ByteSpan(enc.data(), enc.size()));
  ASSERT_TRUE(dec.ok()) << dec.status();
  EXPECT_EQ(*dec, input);
}

TEST(HuffmanTest, RandomDataFallsBackToRaw) {
  Bytes input = MakeRandom(10000, 5);
  Bytes enc = HuffmanEncode(ByteSpan(input.data(), input.size()));
  EXPECT_LE(enc.size(), input.size() + 16);
  auto dec = HuffmanDecode(ByteSpan(enc.data(), enc.size()));
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, input);
}

TEST(HuffmanTest, SingleSymbolInput) {
  Bytes input(5000, 'z');
  Bytes enc = HuffmanEncode(ByteSpan(input.data(), input.size()));
  auto dec = HuffmanDecode(ByteSpan(enc.data(), enc.size()));
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, input);
  EXPECT_LT(enc.size(), 1000u);
}

TEST(HuffmanTest, EmptyInput) {
  Bytes enc = HuffmanEncode(ByteSpan());
  auto dec = HuffmanDecode(ByteSpan(enc.data(), enc.size()));
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec->empty());
}

TEST(HuffmanTest, TruncatedStreamIsCorruption) {
  std::mt19937 rng(9);
  Bytes input(5000);
  for (auto& b : input) b = static_cast<uint8_t>(rng() % 4);
  Bytes enc = HuffmanEncode(ByteSpan(input.data(), input.size()));
  auto dec = HuffmanDecode(ByteSpan(enc.data(), enc.size() / 2));
  EXPECT_FALSE(dec.ok());
}

// A coded block whose own orig_size declares 2^62 bytes: every symbol
// costs at least one bit, so the size is rejected before any output is
// reserved.
TEST(HuffmanTest, HugeOrigSizeIsCorruption) {
  std::mt19937 rng(4);
  Bytes input(5000);
  for (auto& b : input) b = static_cast<uint8_t>(rng() % 8);
  Bytes enc = HuffmanEncode(ByteSpan(input.data(), input.size()));
  BufferReader in(enc.data(), enc.size());
  ASSERT_EQ(*in.ReadU8(), 2);  // Huffman-coded, not the raw fallback
  ASSERT_TRUE(in.ReadVarint().ok());
  BufferWriter forged;
  forged.WriteU8(2);
  forged.WriteVarint(uint64_t{1} << 62);
  forged.WriteBytes(*in.ReadSpan(in.remaining()));
  Bytes bytes = std::move(forged).Take();
  auto dec = HuffmanDecode(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption) << dec.status();
  EXPECT_NE(dec.status().message().find("size exceeds payload"),
            std::string::npos)
      << dec.status();
}

// 256 codes of length 1 violate Kraft's inequality: canonical assignment
// would hand out codes wider than their length and overrun the decode LUT.
TEST(HuffmanTest, OverSubscribedLengthsAreCorruption) {
  BufferWriter forged;
  forged.WriteU8(2);
  forged.WriteVarint(100);
  for (int s = 0; s < 256; ++s) forged.WriteU8(1);
  for (int lane = 0; lane < 3; ++lane) forged.WriteVarint(25);
  for (int i = 0; i < 100; ++i) forged.WriteU8(0x5a);
  Bytes bytes = std::move(forged).Take();
  auto dec = HuffmanDecode(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption) << dec.status();
  EXPECT_NE(dec.status().message().find("over-subscribed"), std::string::npos)
      << dec.status();
}

TEST(CodecTest, NamesRoundtrip) {
  for (CodecType t : {CodecType::kNone, CodecType::kFastLz,
                      CodecType::kDeflateLite, CodecType::kZsLite}) {
    auto back = CodecFromName(CodecName(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
  // Paper-name aliases map to stand-ins.
  EXPECT_EQ(*CodecFromName("snappy"), CodecType::kFastLz);
  EXPECT_EQ(*CodecFromName("gzip"), CodecType::kDeflateLite);
  EXPECT_EQ(*CodecFromName("zstd"), CodecType::kZsLite);
  EXPECT_FALSE(CodecFromName("lzma").ok());
}

class CodecSweep
    : public ::testing::TestWithParam<std::tuple<CodecType, int>> {};

TEST_P(CodecSweep, Roundtrip) {
  auto [type, dataset] = GetParam();
  const Codec& codec = GetCodec(type);
  Bytes input;
  switch (dataset) {
    case 0: input = MakeRepetitive(30000); break;
    case 1: input = MakeRandom(30000, 11); break;
    case 2: input = MakeScientific(4000); break;
    case 3: input = Bytes{}; break;
    case 4: input = MakeRandom(17, 13); break;
  }
  Bytes comp = codec.Compress(ByteSpan(input.data(), input.size()));
  auto out = codec.Decompress(ByteSpan(comp.data(), comp.size()));
  ASSERT_TRUE(out.ok()) << CodecName(type) << " ds=" << dataset << ": "
                        << out.status();
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllData, CodecSweep,
    ::testing::Combine(::testing::Values(CodecType::kNone, CodecType::kFastLz,
                                         CodecType::kDeflateLite,
                                         CodecType::kZsLite),
                       ::testing::Values(0, 1, 2, 3, 4)));

// A frame whose size varint declares 2^62 bytes decodes its real stream,
// then fails the size check; the output reservation is bounded by the
// input, not by the declared size.
class HugeDeclaredSize : public ::testing::TestWithParam<CodecType> {};

TEST_P(HugeDeclaredSize, IsCorruption) {
  const Codec& codec = GetCodec(GetParam());
  Bytes input = MakeRepetitive(5000);
  Bytes comp = codec.Compress(ByteSpan(input.data(), input.size()));
  BufferReader in(comp.data(), comp.size());
  ASSERT_EQ(*in.ReadVarint(), input.size());
  BufferWriter forged;
  forged.WriteVarint(uint64_t{1} << 62);
  forged.WriteBytes(*in.ReadSpan(in.remaining()));
  Bytes bytes = std::move(forged).Take();
  auto out = codec.Decompress(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption) << out.status();
}

INSTANTIATE_TEST_SUITE_P(LzCodecs, HugeDeclaredSize,
                         ::testing::Values(CodecType::kFastLz,
                                           CodecType::kDeflateLite,
                                           CodecType::kZsLite));

TEST(CodecTest, RatioOrderingOnScientificData) {
  // The Fig. 6 reproduction depends on this ordering (see DESIGN.md).
  Bytes input = MakeScientific(50000);
  ByteSpan span(input.data(), input.size());
  size_t none = GetCodec(CodecType::kNone).Compress(span).size();
  size_t fast = GetCodec(CodecType::kFastLz).Compress(span).size();
  size_t deflate = GetCodec(CodecType::kDeflateLite).Compress(span).size();
  size_t zs = GetCodec(CodecType::kZsLite).Compress(span).size();
  EXPECT_LT(fast, none);
  EXPECT_LT(deflate, fast);
  EXPECT_LE(zs, deflate + deflate / 20);  // zs-lite ~best ratio
}

TEST(CodecTest, CorruptPayloadDetected) {
  const Codec& codec = GetCodec(CodecType::kZsLite);
  Bytes input = MakeRepetitive(5000);
  Bytes comp = codec.Compress(ByteSpan(input.data(), input.size()));
  comp.resize(comp.size() / 2);
  auto out = codec.Decompress(ByteSpan(comp.data(), comp.size()));
  EXPECT_FALSE(out.ok());
}


// Appending bytes to a complete frame is Corruption for every codec: the
// raw Huffman block ends at its declared size, a coded one within its last
// byte, and the LZ layouts at their last sequence.
class TrailingBytes : public ::testing::TestWithParam<CodecType> {};

TEST_P(TrailingBytes, AreCorruption) {
  const Codec& codec = GetCodec(GetParam());
  for (const Bytes& input : {MakeRepetitive(5000), MakeScientific(1000)}) {
    const Bytes comp = codec.Compress(ByteSpan(input.data(), input.size()));
    ASSERT_TRUE(codec.Decompress(comp).ok());
    for (size_t extra : {1, 2}) {
      for (uint8_t value : {uint8_t{0x00}, uint8_t{0xA5}}) {
        Bytes forged = comp;
        forged.insert(forged.end(), extra, value);
        auto out = codec.Decompress(forged);
        ASSERT_FALSE(out.ok()) << CodecName(GetParam()) << " +" << extra;
        EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, TrailingBytes,
                         ::testing::Values(CodecType::kNone,
                                           CodecType::kFastLz,
                                           CodecType::kDeflateLite,
                                           CodecType::kZsLite));

// --- Reference decoder ---------------------------------------------------
// Bit-serial canonical Huffman over the four lanes, one lane after the
// other, and a byte-loop LZ77 over BufferReader, with the trailing-bytes
// rule. nullopt stands for Corruption.

std::optional<Bytes> RefHuffman(ByteSpan input) {
  BufferReader in(input);
  auto flag = in.ReadU8();
  auto n = flag.ok() ? in.ReadVarint() : Result<uint64_t>(flag.status());
  if (!n.ok()) return std::nullopt;
  if (*flag == 0) {
    auto raw = in.ReadSpan(*n);
    if (!raw.ok() || !in.exhausted()) return std::nullopt;
    return Bytes(raw->begin(), raw->end());
  }
  auto lengths = in.ReadSpan(256);
  if (*flag != 2 || !lengths.ok()) return std::nullopt;
  std::vector<int> sorted;  // by (length, symbol)
  uint64_t first_code[13] = {}, first_index[13] = {}, count[13] = {};
  uint64_t code = 0;
  for (uint64_t l = 1; l <= 12; ++l) {
    first_index[l] = sorted.size();
    for (int sym = 0; sym < 256; ++sym) {
      if ((*lengths)[sym] == l) sorted.push_back(sym);
    }
    count[l] = sorted.size() - first_index[l];
    if (code + count[l] > (uint64_t{1} << l)) return std::nullopt;
    first_code[l] = code;
    code = (code + count[l]) << 1;
  }
  for (uint8_t len : *lengths) {
    if (len > 12) return std::nullopt;
  }
  // Lanes 0-2 carry their byte lengths; lane 3 is the rest. Lane i holds
  // symbols [i*q, min((i+1)*q, n)) with q = ceil(n / 4).
  ByteSpan lanes[4];
  uint64_t declared[3];
  for (uint64_t& d : declared) {
    auto len = in.ReadVarint();
    if (!len.ok()) return std::nullopt;
    d = *len;
  }
  if (*n > 8 * in.remaining()) return std::nullopt;
  for (int i = 0; i < 3; ++i) {
    auto lane = in.ReadSpan(declared[i]);
    if (!lane.ok()) return std::nullopt;
    lanes[i] = *lane;
  }
  lanes[3] = input.subspan(in.position());
  const uint64_t q = *n / 4 + (*n % 4 != 0);
  Bytes out;
  for (const ByteSpan bits : lanes) {
    const uint64_t lane_end = std::min(out.size() + q, *n);
    auto bit_at = [&](size_t i) { return (bits[i >> 3] >> (7 - (i & 7))) & 1; };
    size_t pos = 0;
    while (out.size() < lane_end) {
      uint64_t c = 0;
      int sym = -1;
      for (int l = 1; l <= 12 && sym < 0; ++l) {
        if (pos == 8 * bits.size()) return std::nullopt;
        c = c << 1 | bit_at(pos++);
        if (c >= first_code[l] && c - first_code[l] < count[l]) {
          sym = sorted[first_index[l] + (c - first_code[l])];
        }
      }
      if (sym < 0) return std::nullopt;
      out.push_back(static_cast<uint8_t>(sym));
    }
    if (8 * bits.size() - pos >= 8) return std::nullopt;
    for (; pos < 8 * bits.size(); ++pos) {
      if (bit_at(pos)) return std::nullopt;
    }
  }
  return out;
}

// Appends the match (offset, encoded length) one byte at a time.
bool RefMatch(Bytes* out, Result<uint64_t> offset, uint64_t mlen_enc,
              uint64_t expected, uint64_t min_match) {
  if (!offset.ok() || *offset == 0 || *offset > out->size()) return false;
  const uint64_t room = expected - out->size();
  if (room < min_match - 1 || mlen_enc > room - (min_match - 1)) return false;
  for (uint64_t i = 0; i < mlen_enc + min_match - 1; ++i) {
    out->push_back((*out)[out->size() - *offset]);
  }
  return true;
}

bool RefLiterals(Bytes* out, Result<uint64_t> lit_len, BufferReader* literals,
                 uint64_t expected) {
  if (!lit_len.ok() || *lit_len > expected - out->size()) return false;
  auto lits = literals->ReadSpan(*lit_len);
  if (!lits.ok()) return false;
  out->insert(out->end(), lits->begin(), lits->end());
  return true;
}

std::optional<Bytes> RefLz77(ByteSpan input, uint64_t expected,
                             uint64_t min_match) {
  BufferReader in(input);
  Bytes out;
  while (true) {
    if (!RefLiterals(&out, in.ReadVarint(), &in, expected)) return std::nullopt;
    auto mlen = in.ReadVarint();
    if (!mlen.ok()) return std::nullopt;
    if (*mlen == 0) break;
    if (!RefMatch(&out, in.ReadVarint(), *mlen, expected, min_match)) {
      return std::nullopt;
    }
  }
  if (!in.exhausted() || out.size() != expected) return std::nullopt;
  return out;
}

std::optional<Bytes> RefSplit(ByteSpan input, uint64_t expected,
                              uint64_t min_match) {
  BufferReader in(input);
  auto n_seq = in.ReadVarint();
  if (!n_seq.ok()) return std::nullopt;
  Bytes streams[4];
  for (Bytes& stream : streams) {
    auto len = in.ReadVarint();
    auto coded = len.ok() ? in.ReadSpan(*len) : Result<ByteSpan>(len.status());
    if (!coded.ok()) return std::nullopt;
    auto decoded = RefHuffman(*coded);
    if (!decoded) return std::nullopt;
    stream = std::move(*decoded);
  }
  if (!in.exhausted()) return std::nullopt;
  BufferReader litlens(streams[0]), matchlens(streams[1]);
  BufferReader offsets(streams[2]), literals(streams[3]);
  Bytes out;
  for (uint64_t s = 0; s < *n_seq; ++s) {
    if (!RefLiterals(&out, litlens.ReadVarint(), &literals, expected)) {
      return std::nullopt;
    }
    auto mlen = matchlens.ReadVarint();
    if (!mlen.ok()) return std::nullopt;
    if (*mlen == 0) {
      if (s + 1 != *n_seq) return std::nullopt;
      break;
    }
    if (!RefMatch(&out, offsets.ReadVarint(), *mlen, expected, min_match)) {
      return std::nullopt;
    }
  }
  if (!litlens.exhausted() || !matchlens.exhausted() || !offsets.exhausted() ||
      !literals.exhausted() || out.size() != expected) {
    return std::nullopt;
  }
  return out;
}

std::optional<Bytes> RefDecompress(CodecType type, ByteSpan frame) {
  constexpr uint64_t kMinMatch = 4;  // every LZ codec's Lz77Params
  BufferReader in(frame);
  auto orig = in.ReadVarint();
  if (!orig.ok()) return std::nullopt;
  const ByteSpan payload = frame.subspan(in.position());
  switch (type) {
    case CodecType::kFastLz:
      return RefLz77(payload, *orig, kMinMatch);
    case CodecType::kDeflateLite: {
      auto lz = RefHuffman(payload);
      if (!lz) return std::nullopt;
      return RefLz77(*lz, *orig, kMinMatch);
    }
    case CodecType::kZsLite:
      return RefSplit(payload, *orig, kMinMatch);
    case CodecType::kNone:
      break;
  }
  return std::nullopt;
}

// Column-shaped payloads: uniform doubles, int64 ids, small dictionary
// codes and one long run.
std::vector<Bytes> ColumnPayloads(uint32_t seed) {
  std::mt19937_64 rng(seed);
  Bytes doubles, ids, codes, run(3000, 0x41);
  for (int i = 0; i < 400; ++i) {
    const double v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    doubles.insert(doubles.end(), p, p + 8);
  }
  for (int64_t i = 0; i < 400; ++i) {
    const int64_t id = 1000000 + 3 * i + static_cast<int64_t>(rng() % 3);
    const auto* p = reinterpret_cast<const uint8_t*>(&id);
    ids.insert(ids.end(), p, p + 8);
  }
  for (int i = 0; i < 3000; ++i) {
    codes.push_back(static_cast<uint8_t>(rng() % 16 < 12 ? rng() % 3 : rng() % 7));
  }
  return {doubles, ids, codes, run};
}

// Every mutant (bit flip, byte overwrite, truncation, insertion) of a valid
// frame must get the reference decoder's answer from Codec::Decompress: the
// same OK-or-Corruption verdict and, when OK, the same bytes.
TEST(DifferentialSweep, MutantsAgreeWithReferenceDecoder) {
  constexpr int kMutantsPerFrame = 900;
  std::mt19937 rng(20261017);
  size_t mutants = 0, accepted = 0, disagreements = 0;
  for (CodecType type : {CodecType::kFastLz, CodecType::kDeflateLite,
                         CodecType::kZsLite}) {
    const Codec& codec = GetCodec(type);
    for (const Bytes& payload : ColumnPayloads(7)) {
      const Bytes frame = codec.Compress(payload);
      auto ref = RefDecompress(type, frame);
      ASSERT_TRUE(ref.has_value()) << CodecName(type);
      ASSERT_EQ(*ref, payload) << CodecName(type);
      for (int m = 0; m < kMutantsPerFrame; ++m) {
        Bytes mutant = frame;
        const size_t at = rng() % mutant.size();
        switch (m % 4) {
          case 0: mutant[at] ^= static_cast<uint8_t>(1u << (rng() % 8)); break;
          case 1: mutant[at] = static_cast<uint8_t>(rng()); break;
          case 2: mutant.resize(at); break;
          case 3:
            mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                          static_cast<uint8_t>(rng()));
            break;
        }
        ++mutants;
        auto got = codec.Decompress(mutant);
        auto want = RefDecompress(type, mutant);
        if (got.ok()) ++accepted;
        const bool agree = got.ok() ? want.has_value() && *got == *want
                                    : !want.has_value() &&
                                          got.status().code() ==
                                              StatusCode::kCorruption;
        if (!agree) {
          ++disagreements;
          ADD_FAILURE() << CodecName(type) << " mutant kind " << m % 4
                        << " at " << at << ": decoder "
                        << (got.ok() ? "OK" : got.status().ToString())
                        << ", reference " << (want ? "OK" : "Corruption");
          if (disagreements > 5) return;
        }
      }
    }
  }
  EXPECT_GE(mutants, 10000u);
  EXPECT_GT(accepted, 0u) << "no mutant decoded; the sweep checks no bytes";
  EXPECT_EQ(disagreements, 0u);
}

// --- Fast-path edge cases ------------------------------------------------

// The four lanes of `symbols` under the canonical codes for `lengths`,
// each padded with zero bits to a byte, written independently of
// HuffmanEncode (which stores short inputs raw).
std::array<Bytes, 4> HuffmanLanes(const std::array<uint8_t, 256>& lengths,
                                  const Bytes& symbols) {
  std::array<uint64_t, 256> codes{};
  uint64_t code = 0;
  for (int l = 1; l <= 32; ++l) {
    for (int s = 0; s < 256; ++s) {
      if (lengths[s] == l) codes[s] = code++;
    }
    code <<= 1;
  }
  const size_t q = (symbols.size() + 3) / 4;
  std::array<Bytes, 4> lanes;
  for (size_t i = 0; i < symbols.size(); i += q) {
    Bytes& lane = lanes[i / q];
    uint64_t acc = 0;
    int nbits = 0;
    for (size_t j = i; j < std::min(i + q, symbols.size()); ++j) {
      const uint8_t s = symbols[j];
      for (int b = lengths[s] - 1; b >= 0; --b) {
        acc = acc << 1 | ((codes[s] >> b) & 1);
        if (++nbits == 8) {
          lane.push_back(static_cast<uint8_t>(acc));
          acc = 0;
          nbits = 0;
        }
      }
    }
    if (nbits > 0) lane.push_back(static_cast<uint8_t>(acc << (8 - nbits)));
  }
  return lanes;
}

// A coded frame: flag, symbol count, lengths, the byte lengths declared
// for lanes 0-2, then the lanes.
Bytes LaneFrame(const std::array<uint8_t, 256>& lengths, uint64_t n,
                const std::array<Bytes, 4>& lanes,
                const std::array<uint64_t, 3>& declared, uint8_t flag = 2) {
  BufferWriter out;
  out.WriteU8(flag);
  out.WriteVarint(n);
  out.WriteBytes(lengths.data(), lengths.size());
  for (uint64_t d : declared) out.WriteVarint(d);
  for (const Bytes& lane : lanes) out.WriteBytes(lane.data(), lane.size());
  return std::move(out).Take();
}

std::array<uint64_t, 3> LaneSizes(const std::array<Bytes, 4>& lanes) {
  return {lanes[0].size(), lanes[1].size(), lanes[2].size()};
}

Bytes CodedHuffmanFrame(const std::array<uint8_t, 256>& lengths,
                        const Bytes& symbols) {
  const auto lanes = HuffmanLanes(lengths, symbols);
  return LaneFrame(lengths, symbols.size(), lanes, LaneSizes(lanes));
}

// Fibonacci-weighted frequencies would make an unlimited Huffman tree 19
// codes deep. The encoder limits the lengths to the decoder's 12-bit
// lookup table and keeps the code complete.
TEST(HuffmanTest, CodeLengthsAreLimitedToLookupTable) {
  Bytes input;
  uint64_t a = 1, b = 1;
  for (int s = 0; s < 20; ++s) {
    input.insert(input.end(), a, static_cast<uint8_t>(s));
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  std::shuffle(input.begin(), input.end(), std::mt19937(5));
  const Bytes enc = HuffmanEncode(input);
  ASSERT_EQ(enc[0], 2) << "expected a coded block";
  BufferReader in(enc);
  ASSERT_TRUE(in.ReadU8().ok());
  ASSERT_TRUE(in.ReadVarint().ok());
  auto lengths = in.ReadSpan(256);
  ASSERT_TRUE(lengths.ok());
  EXPECT_EQ(*std::max_element(lengths->begin(), lengths->end()), 12);
  uint64_t kraft = 0;  // in units of 2^-12
  for (uint8_t len : *lengths) {
    if (len != 0) kraft += uint64_t{1} << (12 - len);
  }
  EXPECT_EQ(kraft, 4096u) << "the limited code must stay complete";
  auto dec = HuffmanDecode(enc);
  ASSERT_TRUE(dec.ok()) << dec.status();
  EXPECT_EQ(*dec, input);
  EXPECT_EQ(RefHuffman(enc), input);
  // Every truncation cuts the header, a lane or the padding short.
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(HuffmanDecode(ByteSpan(enc.data(), cut)).ok()) << cut;
  }
}

// Streams of 1-70 symbols: every code of the short ones, and the last
// codes of the longer ones, decode in the lanes' byte-refill tails, and
// the short ones leave trailing lanes empty. Lengths 1..12 reach the
// longest code the table holds; all-8 lengths keep the four-lane loop
// busy up to the tails. Each lane must end exactly at its last code: a
// lane one byte short or long, a set padding bit and declared lane
// lengths past the payload are Corruption, for the decoder and the
// reference alike.
TEST(HuffmanTest, ShortStreamsDecodeInTheTail) {
  std::array<uint8_t, 256> deep{}, flat{};
  for (int s = 0; s < 12; ++s) deep[s] = static_cast<uint8_t>(s + 1);
  deep[12] = 12;
  flat.fill(8);
  // Decoded from an exactly sized copy, so a read past the frame is a
  // heap overflow under ASan.
  auto rejected = [](const Bytes& frame, const std::string& what,
                     const std::string& message = "") {
    const Bytes exact(frame.begin(), frame.end());
    auto dec = HuffmanDecode(exact);
    ASSERT_FALSE(dec.ok()) << what;
    EXPECT_EQ(dec.status().code(), StatusCode::kCorruption) << what;
    EXPECT_NE(dec.status().message().find(message), std::string::npos)
        << what << ": " << dec.status();
    EXPECT_FALSE(RefHuffman(exact).has_value()) << what;
  };
  std::mt19937 rng(70);
  for (const auto& [lengths, alphabet] :
       {std::pair{deep, 13}, std::pair{flat, 256}}) {
    for (size_t n = 1; n <= 70; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n));
      Bytes symbols(n);
      for (auto& s : symbols) s = static_cast<uint8_t>(rng() % alphabet);
      const auto lanes = HuffmanLanes(lengths, symbols);
      const Bytes frame = CodedHuffmanFrame(lengths, symbols);
      auto dec = HuffmanDecode(frame);
      ASSERT_TRUE(dec.ok()) << dec.status();
      EXPECT_EQ(*dec, symbols);
      EXPECT_EQ(RefHuffman(frame), symbols);
      const size_t q = (n + 3) / 4;
      size_t total = 0;
      for (const Bytes& lane : lanes) total += lane.size();
      for (size_t i = 0; i < 4; ++i) {
        auto longer = lanes;
        longer[i].push_back(0);
        rejected(LaneFrame(lengths, n, longer, LaneSizes(longer)),
                 "lane one byte long");
        if (lanes[i].empty()) continue;
        auto shorter = lanes;
        shorter[i].pop_back();
        rejected(LaneFrame(lengths, n, shorter, LaneSizes(shorter)),
                 "lane one byte short");
        size_t code_bits = 0;
        for (size_t j = i * q; j < std::min((i + 1) * q, n); ++j) {
          code_bits += lengths[symbols[j]];
        }
        if (code_bits % 8 != 0) {
          auto padded = lanes;
          padded[i].back() |= 1;
          rejected(LaneFrame(lengths, n, padded, LaneSizes(padded)),
                   "set padding bit");
        }
        if (i == 3) continue;
        // Lanes 0..i declared to end one byte past the payload.
        auto declared = LaneSizes(lanes);
        declared[i] = total + 1;
        for (size_t j = 0; j < i; ++j) declared[i] -= declared[j];
        rejected(LaneFrame(lengths, n, lanes, declared),
                 "lane lengths past the payload",
                 "lane lengths exceed payload");
      }
    }
  }
}

// A length above the 12-bit lookup table is Corruption even when the code
// satisfies Kraft's inequality, and so is the single-stream flag-1 block
// that the four-lane layout replaced.
TEST(HuffmanTest, LongCodesAndUnlanedBlocksAreCorruption) {
  std::array<uint8_t, 256> lengths{};
  for (int s = 0; s < 12; ++s) lengths[s] = static_cast<uint8_t>(s + 1);
  lengths[12] = lengths[13] = 13;
  Bytes symbols(200);
  std::mt19937 rng(13);
  for (auto& s : symbols) s = static_cast<uint8_t>(rng() % 14);
  symbols[0] = 13;
  const Bytes too_long = CodedHuffmanFrame(lengths, symbols);
  auto dec = HuffmanDecode(too_long);
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
  EXPECT_NE(dec.status().message().find("bad length"), std::string::npos)
      << dec.status();
  EXPECT_FALSE(RefHuffman(too_long).has_value());

  lengths[12] = 12;
  lengths[13] = 0;
  for (auto& s : symbols) s %= 13;
  Bytes unlaned = CodedHuffmanFrame(lengths, symbols);
  ASSERT_TRUE(HuffmanDecode(unlaned).ok());
  unlaned[0] = 1;
  dec = HuffmanDecode(unlaned);
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
  EXPECT_NE(dec.status().message().find("bad flag"), std::string::npos)
      << dec.status();
  EXPECT_FALSE(RefHuffman(unlaned).has_value());
}

// Hand-built sequences whose match overlaps its own output: a period of
// `offset` bytes repeated for `run` more, followed by a literal and a
// distant match, in both the interleaved and the split layout.
TEST(Lz77Test, OverlappingMatchesReplicateThePeriod) {
  const Lz77Params params;  // min_match 4
  std::mt19937 rng(16);
  for (uint64_t offset = 1; offset <= 17; ++offset) {
    for (uint64_t run : {offset + 1, 2 * offset + 3, 3 * offset, uint64_t{100},
                         uint64_t{1000}}) {
      if (run < params.min_match) continue;
      Bytes expected(offset);
      for (auto& b : expected) b = static_cast<uint8_t>(rng());
      for (uint64_t i = 0; i < run; ++i) {
        expected.push_back(expected[expected.size() - offset]);
      }
      expected.push_back(0x7E);
      for (int i = 0; i < 20; ++i) expected.push_back(expected[i]);

      BufferWriter litlens, matchlens, offsets, literals, stream;
      auto sequence = [&](ByteSpan lits, uint64_t mlen, uint64_t off) {
        litlens.WriteVarint(lits.size());
        literals.WriteBytes(lits);
        stream.WriteVarint(lits.size());
        stream.WriteBytes(lits);
        const uint64_t enc = mlen == 0 ? 0 : mlen - params.min_match + 1;
        matchlens.WriteVarint(enc);
        stream.WriteVarint(enc);
        if (mlen == 0) return;
        offsets.WriteVarint(off);
        stream.WriteVarint(off);
      };
      const ByteSpan all(expected);
      sequence(all.first(offset), run, offset);
      sequence(all.subspan(offset + run, 1), 20, offset + run + 1);
      sequence({}, 0, 0);

      auto out = Lz77Decompress(stream.span(), expected.size(), params);
      ASSERT_TRUE(out.ok()) << offset << "/" << run << ": " << out.status();
      EXPECT_EQ(*out, expected) << offset << "/" << run;
      auto split = Lz77DecompressSplit(
          {3, litlens.span(), matchlens.span(), offsets.span(),
           literals.span()},
          expected.size(), params);
      ASSERT_TRUE(split.ok()) << offset << "/" << run << ": " << split.status();
      EXPECT_EQ(*split, expected) << offset << "/" << run;
    }
  }
}

// A match length near 2^64 must not wrap the output-size arithmetic.
TEST(Lz77Test, HugeMatchLengthIsCorruption) {
  const Lz77Params params;
  for (uint64_t mlen_enc : {~uint64_t{0}, ~uint64_t{0} - 2, ~uint64_t{0} - 3,
                            uint64_t{1} << 63}) {
    BufferWriter stream;
    stream.WriteVarint(4);
    stream.WriteBytes("abcd", 4);
    stream.WriteVarint(mlen_enc);
    stream.WriteVarint(1);
    stream.WriteVarint(0);
    stream.WriteVarint(0);
    for (size_t expected : {size_t{4}, size_t{6}, size_t{64}}) {
      auto out = Lz77Decompress(stream.span(), expected, params);
      ASSERT_FALSE(out.ok()) << mlen_enc << " -> " << expected;
      EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
    }
  }
}

// A legitimate frame may expand past the up-front reservation
// (64 x input + 64 KiB); the output then grows until the declared size.
class PastReservationCap : public ::testing::TestWithParam<CodecType> {};

TEST_P(PastReservationCap, LongRunDecodes) {
  const Codec& codec = GetCodec(GetParam());
  Bytes input = MakeRandom(100, 3);
  input.resize(input.size() + (size_t{1} << 21), 0x5A);
  const Bytes comp = codec.Compress(input);
  ASSERT_GT(input.size(), 64 * comp.size() + (64 << 10));
  auto out = codec.Decompress(comp);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(LzCodecs, PastReservationCap,
                         ::testing::Values(CodecType::kFastLz,
                                           CodecType::kDeflateLite,
                                           CodecType::kZsLite));

}  // namespace
}  // namespace pocs::compress
