// Tests for the compression stack: LZ77 core, Huffman stage, and the three
// composed codecs. Includes property sweeps over data distributions and
// corruption injection.
#include <gtest/gtest.h>

#include <random>

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

// A stream whose own orig_size declares 2^62 bytes: every symbol costs at
// least one bit, so the size is rejected before any output is reserved.
TEST(HuffmanTest, HugeOrigSizeIsCorruption) {
  std::mt19937 rng(4);
  Bytes input(5000);
  for (auto& b : input) b = static_cast<uint8_t>(rng() % 8);
  Bytes enc = HuffmanEncode(ByteSpan(input.data(), input.size()));
  BufferReader in(enc.data(), enc.size());
  ASSERT_EQ(*in.ReadU8(), 1);  // Huffman-coded, not the raw fallback
  ASSERT_TRUE(in.ReadVarint().ok());
  BufferWriter forged;
  forged.WriteU8(1);
  forged.WriteVarint(uint64_t{1} << 62);
  forged.WriteBytes(*in.ReadSpan(in.remaining()));
  Bytes bytes = std::move(forged).Take();
  auto dec = HuffmanDecode(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption) << dec.status();
}

// 256 codes of length 1 violate Kraft's inequality: canonical assignment
// would hand out codes wider than their length and overrun the decode LUT.
TEST(HuffmanTest, OverSubscribedLengthsAreCorruption) {
  BufferWriter forged;
  forged.WriteU8(1);
  forged.WriteVarint(100);
  for (int s = 0; s < 256; ++s) forged.WriteU8(1);
  for (int i = 0; i < 100; ++i) forged.WriteU8(0x5a);
  Bytes bytes = std::move(forged).Take();
  auto dec = HuffmanDecode(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption) << dec.status();
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

}  // namespace
}  // namespace pocs::compress
