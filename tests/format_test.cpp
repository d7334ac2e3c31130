// Tests for Parquet-lite: stats collection, writer/reader roundtrips across
// codecs and row-group boundaries, projection, footer-only access, and
// corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>

#include "columnar/ipc.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "format/stats.h"

namespace pocs::format {
namespace {

using columnar::Datum;
using columnar::Field;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using columnar::TypeKind;

SchemaPtr TestSchema() {
  return MakeSchema({{"id", TypeKind::kInt64},
                     {"value", TypeKind::kFloat64},
                     {"tag", TypeKind::kString}});
}

RecordBatchPtr TestBatch(int64_t start, int64_t count) {
  auto id = MakeColumn(TypeKind::kInt64);
  auto value = MakeColumn(TypeKind::kFloat64);
  auto tag = MakeColumn(TypeKind::kString);
  for (int64_t i = start; i < start + count; ++i) {
    id->AppendInt64(i);
    if (i % 10 == 3) {
      value->AppendNull();
    } else {
      value->AppendFloat64(static_cast<double>(i) * 0.5);
    }
    tag->AppendString("t" + std::to_string(i % 4));
  }
  return MakeBatch(TestSchema(), {id, value, tag});
}

TEST(StatsTest, CollectorTracksMinMaxNullsNdv) {
  StatsCollector collector(TypeKind::kInt64);
  auto col = MakeColumn(TypeKind::kInt64);
  col->AppendInt64(5);
  col->AppendInt64(-2);
  col->AppendNull();
  col->AppendInt64(9);
  col->AppendInt64(5);  // duplicate
  collector.Update(*col);
  const ColumnStats& s = collector.stats();
  EXPECT_EQ(s.row_count, 5u);
  EXPECT_EQ(s.null_count, 1u);
  EXPECT_EQ(s.min.AsInt64(), -2);
  EXPECT_EQ(s.max.AsInt64(), 9);
  EXPECT_EQ(s.ndv, 3u);
  EXPECT_FALSE(s.ndv_capped);
}

TEST(StatsTest, StringMinMax) {
  StatsCollector collector(TypeKind::kString);
  auto col = MakeColumn(TypeKind::kString);
  col->AppendString("N");
  col->AppendString("A");
  col->AppendString("R");
  collector.Update(*col);
  EXPECT_EQ(collector.stats().min.string_value(), "A");
  EXPECT_EQ(collector.stats().max.string_value(), "R");
}

TEST(StatsTest, SerializeRoundtrip) {
  StatsCollector collector(TypeKind::kFloat64);
  auto col = MakeColumn(TypeKind::kFloat64);
  for (int i = 0; i < 100; ++i) col->AppendFloat64(i * 0.25);
  col->AppendNull();
  collector.Update(*col);

  BufferWriter w;
  collector.stats().Serialize(&w);
  BufferReader r(w.span());
  auto rt = ColumnStats::Deserialize(&r);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->row_count, 101u);
  EXPECT_EQ(rt->null_count, 1u);
  EXPECT_DOUBLE_EQ(rt->min.float64_value(), 0.0);
  EXPECT_DOUBLE_EQ(rt->max.float64_value(), 24.75);
  EXPECT_EQ(rt->ndv, 100u);
}

TEST(StatsTest, MergeCombines) {
  ColumnStats a;
  a.min = Datum::Int64(5);
  a.max = Datum::Int64(10);
  a.row_count = 100;
  a.null_count = 2;
  a.ndv = 6;
  ColumnStats b;
  b.min = Datum::Int64(-1);
  b.max = Datum::Int64(7);
  b.row_count = 50;
  b.null_count = 0;
  b.ndv = 4;
  a.Merge(b);
  EXPECT_EQ(a.min.AsInt64(), -1);
  EXPECT_EQ(a.max.AsInt64(), 10);
  EXPECT_EQ(a.row_count, 150u);
  EXPECT_EQ(a.ndv, 10u);  // union upper bound
}

TEST(StatsTest, NdvCapSaturates) {
  StatsCollector collector(TypeKind::kInt64);
  auto col = MakeColumn(TypeKind::kInt64);
  for (int64_t i = 0; i < (1 << 16) + 100; ++i) col->AppendInt64(i);
  collector.Update(*col);
  EXPECT_TRUE(collector.stats().ndv_capped);
}

class WriterCodecSweep
    : public ::testing::TestWithParam<compress::CodecType> {};

TEST_P(WriterCodecSweep, RoundtripAcrossGroups) {
  WriterOptions options;
  options.codec = GetParam();
  options.rows_per_group = 100;
  FileWriter writer(TestSchema(), options);
  // 350 rows in uneven batches → 4 row groups (100+100+100+50).
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 75)).ok());
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(75, 200)).ok());
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(275, 75)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok()) << file.status();

  auto reader = FileReader::Open(*file);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->num_row_groups(), 4u);
  EXPECT_EQ((*reader)->meta().num_rows, 350u);
  EXPECT_EQ((*reader)->meta().codec, GetParam());

  auto table = (*reader)->ReadAll();
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 350u);
  auto all = (*table)->Combine();
  for (int64_t i = 0; i < 350; ++i) {
    EXPECT_EQ(all->column(0)->GetInt64(i), i);
    if (i % 10 == 3) {
      EXPECT_TRUE(all->column(1)->IsNull(i));
    } else {
      EXPECT_DOUBLE_EQ(all->column(1)->GetFloat64(i), i * 0.5);
    }
    EXPECT_EQ(all->column(2)->GetString(i), "t" + std::to_string(i % 4));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, WriterCodecSweep,
                         ::testing::Values(compress::CodecType::kNone,
                                           compress::CodecType::kFastLz,
                                           compress::CodecType::kDeflateLite,
                                           compress::CodecType::kZsLite));

TEST(ParquetLiteTest, ColumnProjectionReadsSubset) {
  FileWriter writer(TestSchema(), {});
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 50)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = FileReader::Open(*file);
  ASSERT_TRUE(reader.ok());

  auto batch = (*reader)->ReadRowGroup(0, {2, 0});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ((*batch)->num_columns(), 2u);
  EXPECT_EQ((*batch)->schema()->field(0).name, "tag");
  EXPECT_EQ((*batch)->schema()->field(1).name, "id");
  EXPECT_EQ((*batch)->column(1)->GetInt64(7), 7);
}

TEST(ParquetLiteTest, ChunkStatsInFooter) {
  WriterOptions options;
  options.rows_per_group = 100;
  FileWriter writer(TestSchema(), options);
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 200)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto meta = ReadFooter(ByteSpan(file->data(), file->size()));
  ASSERT_TRUE(meta.ok()) << meta.status();
  ASSERT_EQ(meta->row_groups.size(), 2u);
  // Group 0 holds ids [0, 100); group 1 [100, 200).
  EXPECT_EQ(meta->row_groups[0].chunks[0].stats.min.AsInt64(), 0);
  EXPECT_EQ(meta->row_groups[0].chunks[0].stats.max.AsInt64(), 99);
  EXPECT_EQ(meta->row_groups[1].chunks[0].stats.min.AsInt64(), 100);
  EXPECT_EQ(meta->row_groups[1].chunks[0].stats.max.AsInt64(), 199);
  // File-level stats span both.
  EXPECT_EQ(meta->column_stats[0].min.AsInt64(), 0);
  EXPECT_EQ(meta->column_stats[0].max.AsInt64(), 199);
  EXPECT_EQ(meta->column_stats[0].row_count, 200u);
  // Tag has 4 distinct values.
  EXPECT_EQ(meta->column_stats[2].ndv, 4u);
}

TEST(ParquetLiteTest, ChunkBytesProjectionSmaller) {
  FileWriter writer(TestSchema(), {});
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 1000)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = FileReader::Open(*file);
  ASSERT_TRUE(reader.ok());
  uint64_t all = (*reader)->ChunkBytes(0, {});
  uint64_t one = (*reader)->ChunkBytes(0, {0});
  EXPECT_GT(all, one);
  EXPECT_GT(one, 0u);
}

TEST(ParquetLiteTest, SchemaMismatchRejected) {
  FileWriter writer(TestSchema(), {});
  auto other = MakeSchema({{"x", TypeKind::kInt32}});
  auto col = MakeColumn(TypeKind::kInt32);
  col->AppendInt32(1);
  EXPECT_FALSE(writer.WriteBatch(*MakeBatch(other, {col})).ok());
}

TEST(ParquetLiteTest, EmptyFileRoundtrip) {
  FileWriter writer(TestSchema(), {});
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = FileReader::Open(*file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_row_groups(), 0u);
  auto table = (*reader)->ReadAll();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 0u);
}

TEST(ParquetLiteTest, DoubleFinishFails) {
  FileWriter writer(TestSchema(), {});
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_FALSE(writer.Finish().ok());
  EXPECT_FALSE(writer.WriteBatch(*TestBatch(0, 1)).ok());
}

TEST(ParquetLiteTest, CorruptMagicRejected) {
  FileWriter writer(TestSchema(), {});
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 10)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  Bytes bad = *file;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(FileReader::Open(bad).ok());
  bad = *file;
  bad[bad.size() - 1] ^= 0xFF;
  EXPECT_FALSE(FileReader::Open(bad).ok());
}

TEST(ParquetLiteTest, TruncatedFileRejected) {
  FileWriter writer(TestSchema(), {});
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 10)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  Bytes bad(file->begin(), file->begin() + file->size() / 2);
  EXPECT_FALSE(FileReader::Open(bad).ok());
}

TEST(ParquetLiteTest, CorruptChunkDetectedOnRead) {
  WriterOptions options;
  options.codec = compress::CodecType::kFastLz;
  FileWriter writer(TestSchema(), options);
  ASSERT_TRUE(writer.WriteBatch(*TestBatch(0, 100)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  Bytes bad = *file;
  bad[20] ^= 0xFF;  // inside the first chunk's payload
  // The footer is intact, so Open succeeds; the chunk checksum fails the
  // read before the codec sees the bytes.
  auto reader = FileReader::Open(bad);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto batch = (*reader)->ReadRowGroup(0);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCorruption);
}

// Dictionary pages are guarded by their chunk checksum on both read
// paths: the materializing one and the code-domain page read.
TEST(ParquetLiteTest, CorruptDictionaryChunkDetectedOnRead) {
  auto schema = MakeSchema({{"flag", TypeKind::kString}});
  auto col = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 1000; ++i) col->AppendString(i % 3 ? "A" : "R");
  FileWriter writer(schema, {});
  ASSERT_TRUE(writer.WriteBatch(*MakeBatch(schema, {col})).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto clean = FileReader::Open(*file);
  ASSERT_TRUE(clean.ok());
  auto page = (*clean)->ReadChunkPage(0, 0);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ((*page)[0], static_cast<uint8_t>(PageEncoding::kDictionary));

  const ChunkMeta& chunk = (*clean)->meta().row_groups[0].chunks[0];
  Bytes bad = *file;
  bad[chunk.offset + chunk.length - 1] ^= 0x01;  // one code byte
  auto reader = FileReader::Open(bad);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto batch = (*reader)->ReadRowGroup(0);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCorruption);
  auto bad_page = (*reader)->ReadChunkPage(0, 0);
  ASSERT_FALSE(bad_page.ok());
  EXPECT_EQ(bad_page.status().code(), StatusCode::kCorruption);
}

TEST(EncodingTest, DictionaryEncodesLowCardinalityStrings) {
  auto col = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 10000; ++i) {
    col->AppendString(i % 4 == 0 ? "RETURN" : (i % 4 == 1 ? "ACCEPT"
                                                          : "NEUTRAL"));
  }
  auto dict = DictionaryEncodeString(*col);
  ASSERT_TRUE(dict.has_value());
  // ~1 byte/row + tiny dictionary vs ~7 bytes/row plain.
  EXPECT_LT(dict->size(), 11000u);
  columnar::Field field{"flag", TypeKind::kString};
  auto decoded = DecodePage(ByteSpan(dict->data(), dict->size()), field,
                            10000);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ((*decoded)->GetString(i), col->GetString(i));
  }
}

TEST(EncodingTest, DictionaryHandlesNulls) {
  auto col = MakeColumn(TypeKind::kString);
  col->AppendString("a");
  col->AppendNull();
  col->AppendString("b");
  col->AppendString("a");
  auto dict = DictionaryEncodeString(*col);
  ASSERT_TRUE(dict.has_value());
  columnar::Field field{"s", TypeKind::kString};
  auto decoded = DecodePage(ByteSpan(dict->data(), dict->size()), field, 4);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)->GetString(0), "a");
  EXPECT_TRUE((*decoded)->IsNull(1));
  EXPECT_EQ((*decoded)->GetString(3), "a");
}

TEST(EncodingTest, HighCardinalityFallsBackToPlain) {
  auto col = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 1000; ++i) col->AppendString("v" + std::to_string(i));
  EXPECT_FALSE(DictionaryEncodeString(*col).has_value());
  // EncodePage still works (plain) and roundtrips.
  columnar::Field field{"s", TypeKind::kString};
  Bytes page = EncodePage(*col, field);
  EXPECT_EQ(page[0], static_cast<uint8_t>(PageEncoding::kPlain));
  auto decoded = DecodePage(ByteSpan(page.data(), page.size()), field, 1000);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->GetString(999), "v999");
}

TEST(EncodingTest, NumericColumnsStayPlain) {
  auto col = MakeColumn(TypeKind::kInt64);
  for (int i = 0; i < 100; ++i) col->AppendInt64(i % 3);
  columnar::Field field{"n", TypeKind::kInt64};
  Bytes page = EncodePage(*col, field);
  EXPECT_EQ(page[0], static_cast<uint8_t>(PageEncoding::kPlain));
}

TEST(EncodingTest, CorruptDictionaryPagesRejected) {
  auto col = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 100; ++i) col->AppendString(i % 2 ? "x" : "y");
  auto dict = DictionaryEncodeString(*col);
  ASSERT_TRUE(dict.has_value());
  columnar::Field field{"s", TypeKind::kString};
  // Wrong expected rows.
  EXPECT_FALSE(DecodePage(ByteSpan(dict->data(), dict->size()), field, 99).ok());
  // Wrong field type.
  columnar::Field wrong{"s", TypeKind::kInt64};
  EXPECT_FALSE(DecodePage(ByteSpan(dict->data(), dict->size()), wrong, 100).ok());
  // Truncation at various points.
  for (size_t cut : {size_t{0}, size_t{2}, dict->size() / 2}) {
    EXPECT_FALSE(DecodePage(ByteSpan(dict->data(), cut), field, 100).ok());
  }
  // Out-of-range code.
  Bytes bad = *dict;
  bad[bad.size() - 1] = 250;
  EXPECT_FALSE(DecodePage(ByteSpan(bad.data(), bad.size()), field, 100).ok());
}

// Row counts come from the footer, which a crafted file controls: a count
// the page bytes cannot hold is Corruption before any allocation.
TEST(EncodingTest, DeclaredRowCountBeyondPageBytesIsCorruption) {
  const size_t rows = size_t{1} << 40;
  const Bytes plain = {static_cast<uint8_t>(PageEncoding::kPlain), 0};
  for (TypeKind type : {TypeKind::kBool, TypeKind::kInt32, TypeKind::kInt64,
                        TypeKind::kFloat64, TypeKind::kString}) {
    auto col = DecodePage(plain, {"v", type}, rows);
    ASSERT_FALSE(col.ok());
    EXPECT_EQ(col.status().code(), StatusCode::kCorruption);
  }
  for (uint64_t null_count : {uint64_t{0}, uint64_t{1}}) {
    BufferWriter dict;
    dict.WriteU8(static_cast<uint8_t>(PageEncoding::kDictionary));
    dict.WriteVarint(1);
    dict.WriteString("x");
    dict.WriteVarint(rows);
    dict.WriteVarint(null_count);
    const Field field{"s", TypeKind::kString};
    auto page = DecodeDictionaryPage(dict.span(), field, rows);
    ASSERT_FALSE(page.ok());
    EXPECT_EQ(page.status().code(), StatusCode::kCorruption);
    auto col = DecodePage(dict.span(), field, rows);
    ASSERT_FALSE(col.ok());
    EXPECT_EQ(col.status().code(), StatusCode::kCorruption);
  }
}

// ["a", NULL, "a", "b"] with row 0's validity byte set to 2 once made the
// code-domain filter (`match & valid`) and materialization disagree about
// row 0. Validity bytes other than 0 and 1, or a null count they
// disagree with, are Corruption in dictionary and plain pages alike.
TEST(EncodingTest, ValidityMustAgreeWithNullCount) {
  auto col = MakeColumn(TypeKind::kString);
  col->AppendString("a");
  col->AppendNull();
  col->AppendString("a");
  col->AppendString("b");
  const Field field{"s", TypeKind::kString};
  auto dict = DictionaryEncodeString(*col);
  ASSERT_TRUE(dict.has_value());
  BufferWriter plain;
  plain.WriteU8(static_cast<uint8_t>(PageEncoding::kPlain));
  columnar::ipc::WriteColumn(*col, &plain);
  const uint8_t validity[] = {1, 0, 1, 1};
  for (const Bytes& page : {*dict, plain.data()}) {
    ASSERT_TRUE(DecodePage(page, field, 4).ok());
    const auto at = std::search(page.begin(), page.end(), std::begin(validity),
                                std::end(validity)) - page.begin();
    ASSERT_LT(static_cast<size_t>(at), page.size());
    for (const auto& [row, byte] : {std::pair{0, uint8_t{2}},
                                    std::pair{2, uint8_t{0}},
                                    std::pair{1, uint8_t{1}}}) {
      Bytes bad = page;
      bad[at + row] = byte;
      auto decoded = DecodePage(bad, field, 4);
      ASSERT_FALSE(decoded.ok()) << "row " << row << " = " << int{byte};
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      if (bad[0] == static_cast<uint8_t>(PageEncoding::kDictionary)) {
        EXPECT_FALSE(DecodeDictionaryPage(bad, field, 4).ok());
      }
    }
  }
}

TEST(EncodingTest, PlainPageIsRawColumnBody) {
  auto col = MakeColumn(TypeKind::kInt64);
  for (int i = 0; i < 100; ++i) col->AppendInt64(i);
  const Field field{"n", TypeKind::kInt64};
  Bytes page = EncodePage(*col, field);
  // Encoding byte, a one-byte zero null count, padding to the values'
  // 8-byte boundary, then the raw values.
  ASSERT_EQ(page.size(), 1u + 1u + 6u + 100u * 8u);
  auto decoded = DecodePage(page, field, 100);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)->GetInt64(99), 99);
  // Fewer rows than the page holds leaves trailing bytes.
  auto short_read = DecodePage(page, field, 99);
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kCorruption);
  page.push_back(0);
  EXPECT_FALSE(DecodePage(page, field, 100).ok());
}

TEST(EncodingTest, DictionaryShrinksTpchStyleFiles) {
  // returnflag-style column: 3 distinct single-char values.
  auto schema = MakeSchema({{"flag", TypeKind::kString}});
  auto make_file = [&](bool low_cardinality) {
    FileWriter writer(schema, {});
    auto col = MakeColumn(TypeKind::kString);
    for (int i = 0; i < 50000; ++i) {
      if (low_cardinality) {
        col->AppendString(i % 3 == 0 ? "R" : (i % 3 == 1 ? "A" : "N"));
      } else {
        col->AppendString("val" + std::to_string(i));
      }
    }
    EXPECT_TRUE(writer.WriteBatch(*MakeBatch(schema, {col})).ok());
    auto file = writer.Finish();
    EXPECT_TRUE(file.ok());
    return file->size();
  };
  // Dictionary: ~1B/row + framing; plain high-cardinality: ~12B/row.
  EXPECT_LT(make_file(true), size_t{80000});
  EXPECT_GT(make_file(false), size_t{300000});
}

TEST(ParquetLiteTest, CompressionShrinksRepetitiveData) {
  auto schema = MakeSchema({{"ts", TypeKind::kInt32}});
  auto make_file = [&](compress::CodecType codec) {
    WriterOptions options;
    options.codec = codec;
    FileWriter writer(schema, options);
    auto col = MakeColumn(TypeKind::kInt32);
    for (int i = 0; i < 100000; ++i) col->AppendInt32(7);  // constant column
    EXPECT_TRUE(writer.WriteBatch(*MakeBatch(schema, {col})).ok());
    auto file = writer.Finish();
    EXPECT_TRUE(file.ok());
    return file->size();
  };
  size_t raw = make_file(compress::CodecType::kNone);
  size_t fast = make_file(compress::CodecType::kFastLz);
  size_t zs = make_file(compress::CodecType::kZsLite);
  EXPECT_LT(fast, raw / 10);
  // At this tiny compressed size the split-stream framing dominates; both
  // codecs collapse the constant column by >1000x.
  EXPECT_LT(zs, raw / 10);
}

}  // namespace
}  // namespace pocs::format
