// Unit + property tests for the columnar layer: types, columns, batches,
// kernels, and IPC roundtrips (including corruption injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include <random>

#include "columnar/batch.h"
#include "columnar/column.h"
#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/types.h"
#include "common/checksum.h"

namespace pocs::columnar {
namespace {

TEST(TypesTest, NamesAndWidths) {
  EXPECT_EQ(TypeName(TypeKind::kFloat64), "float64");
  EXPECT_EQ(TypeWidth(TypeKind::kInt64), 8u);
  EXPECT_EQ(TypeWidth(TypeKind::kString), 0u);
  EXPECT_TRUE(IsNumeric(TypeKind::kDate32));
  EXPECT_FALSE(IsNumeric(TypeKind::kString));
}

TEST(TypesTest, SchemaFieldLookup) {
  Schema s({{"a", TypeKind::kInt64}, {"b", TypeKind::kFloat64}});
  EXPECT_EQ(s.FieldIndex("a"), 0);
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_EQ(s.FieldIndex("c"), -1);
  EXPECT_EQ(s.num_fields(), 2u);
}

TEST(TypesTest, DatumCompareNumericCrossType) {
  EXPECT_EQ(Datum::Int32(5).Compare(Datum::Float64(5.0)), 0);
  EXPECT_LT(Datum::Int64(4).Compare(Datum::Float64(4.5)), 0);
  EXPECT_GT(Datum::Float64(10.0).Compare(Datum::Int32(9)), 0);
}

TEST(TypesTest, DatumNullSortsFirst) {
  EXPECT_LT(Datum::Null(TypeKind::kInt64).Compare(Datum::Int64(0)), 0);
  EXPECT_EQ(Datum::Null(TypeKind::kInt64).Compare(Datum::Null(TypeKind::kInt64)),
            0);
}

TEST(TypesTest, DatumStringCompare) {
  EXPECT_LT(Datum::String("apple").Compare(Datum::String("banana")), 0);
  EXPECT_EQ(Datum::String("x").Compare(Datum::String("x")), 0);
}

TEST(TypesTest, CivilDaysRoundtrip) {
  // Known anchor: 1970-01-01 is day 0; 1998-09-02 (TPC-H Q1 cutoff).
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  int32_t d = DaysFromCivil(1998, 9, 2);
  int y, m, dd;
  CivilFromDays(d, &y, &m, &dd);
  EXPECT_EQ(y, 1998);
  EXPECT_EQ(m, 9);
  EXPECT_EQ(dd, 2);
  EXPECT_EQ(Datum::Date32(d).ToString(), "1998-09-02");
}

TEST(TypesTest, CivilDaysSweep) {
  // Every 37 days across four decades roundtrips exactly.
  for (int32_t d = -3650; d < 18250; d += 37) {
    int y, m, dd;
    CivilFromDays(d, &y, &m, &dd);
    EXPECT_EQ(DaysFromCivil(y, m, dd), d);
  }
}

TEST(ColumnTest, AppendAndRead) {
  Column c(TypeKind::kInt64);
  c.AppendInt64(10);
  c.AppendInt64(-20);
  c.AppendNull();
  ASSERT_EQ(c.length(), 3u);
  EXPECT_EQ(c.GetInt64(0), 10);
  EXPECT_EQ(c.GetInt64(1), -20);
  EXPECT_TRUE(c.IsNull(2));
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_EQ(c.null_count(), 1u);
}

TEST(ColumnTest, StringStorage) {
  Column c(TypeKind::kString);
  c.AppendString("hello");
  c.AppendString("");
  c.AppendString("world");
  EXPECT_EQ(c.GetString(0), "hello");
  EXPECT_EQ(c.GetString(1), "");
  EXPECT_EQ(c.GetString(2), "world");
}

TEST(ColumnTest, NullBeforeFirstValueBackfillsValidity) {
  Column c(TypeKind::kFloat64);
  c.AppendFloat64(1.5);
  c.AppendNull();
  c.AppendFloat64(2.5);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
}

TEST(ColumnTest, AppendFromCopiesNulls) {
  Column src(TypeKind::kString);
  src.AppendString("a");
  src.AppendNull();
  Column dst(TypeKind::kString);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_EQ(dst.GetString(0), "a");
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(ColumnTest, DatumRoundtrip) {
  Column c(TypeKind::kDate32);
  c.AppendDatum(Datum::Date32(100));
  c.AppendDatum(Datum::Null(TypeKind::kDate32));
  EXPECT_EQ(c.GetDatum(0).AsInt64(), 100);
  EXPECT_TRUE(c.GetDatum(1).is_null());
}

TEST(ColumnTest, ByteSizeTracksData) {
  Column c(TypeKind::kInt64);
  for (int i = 0; i < 100; ++i) c.AppendInt64(i);
  EXPECT_EQ(c.ByteSize(), 800u);
}

RecordBatchPtr MakeTestBatch() {
  auto id = MakeColumn(TypeKind::kInt64);
  auto val = MakeColumn(TypeKind::kFloat64);
  auto name = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 10; ++i) {
    id->AppendInt64(i);
    if (i % 3 == 0) {
      val->AppendNull();
    } else {
      val->AppendFloat64(i * 1.5);
    }
    name->AppendString("row" + std::to_string(i));
  }
  auto schema = MakeSchema({{"id", TypeKind::kInt64},
                            {"val", TypeKind::kFloat64},
                            {"name", TypeKind::kString}});
  return MakeBatch(schema, {id, val, name});
}

TEST(BatchTest, BasicAccessors) {
  auto batch = MakeTestBatch();
  EXPECT_EQ(batch->num_rows(), 10u);
  EXPECT_EQ(batch->num_columns(), 3u);
  EXPECT_TRUE(batch->Validate().ok());
  EXPECT_NE(batch->ColumnByName("val"), nullptr);
  EXPECT_EQ(batch->ColumnByName("nope"), nullptr);
}

TEST(BatchTest, ProjectSubset) {
  auto batch = MakeTestBatch();
  auto proj = batch->Project({2, 0});
  EXPECT_EQ(proj->num_columns(), 2u);
  EXPECT_EQ(proj->schema()->field(0).name, "name");
  EXPECT_EQ(proj->schema()->field(1).name, "id");
  EXPECT_EQ(proj->column(1)->GetInt64(5), 5);
}

TEST(BatchTest, ValidateCatchesRaggedColumns) {
  auto a = MakeColumn(TypeKind::kInt64);
  a->AppendInt64(1);
  auto b = MakeColumn(TypeKind::kInt64);
  b->AppendInt64(1);
  b->AppendInt64(2);
  auto schema = MakeSchema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}});
  RecordBatch batch(schema, {a, b});
  EXPECT_FALSE(batch.Validate().ok());
}

TEST(BatchTest, TableCombine) {
  auto schema = MakeSchema({{"x", TypeKind::kInt32}});
  Table table(schema);
  for (int b = 0; b < 3; ++b) {
    auto col = MakeColumn(TypeKind::kInt32);
    for (int i = 0; i < 4; ++i) col->AppendInt32(b * 4 + i);
    table.AppendBatch(MakeBatch(schema, {col}));
  }
  EXPECT_EQ(table.num_rows(), 12u);
  auto combined = table.Combine();
  ASSERT_EQ(combined->num_rows(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(combined->column(0)->GetInt32(i), i);
}

// ---- kernels ------------------------------------------------------------

TEST(KernelsTest, CompareScalarOnInt64) {
  Column c(TypeKind::kInt64);
  for (int i = 0; i < 10; ++i) c.AppendInt64(i);
  auto sel = CompareScalar(c, CompareOp::kGt, Datum::Int64(6));
  EXPECT_EQ(sel, (SelectionVector{7, 8, 9}));
  sel = CompareScalar(c, CompareOp::kEq, Datum::Int64(3));
  EXPECT_EQ(sel, (SelectionVector{3}));
  sel = CompareScalar(c, CompareOp::kLe, Datum::Int64(1));
  EXPECT_EQ(sel, (SelectionVector{0, 1}));
}

TEST(KernelsTest, CompareSkipsNulls) {
  Column c(TypeKind::kFloat64);
  c.AppendFloat64(1.0);
  c.AppendNull();
  c.AppendFloat64(3.0);
  auto sel = CompareScalar(c, CompareOp::kGe, Datum::Float64(0.0));
  EXPECT_EQ(sel, (SelectionVector{0, 2}));
}

TEST(KernelsTest, CompareWithNullLiteralMatchesNothing) {
  Column c(TypeKind::kInt64);
  c.AppendInt64(1);
  auto sel = CompareScalar(c, CompareOp::kEq, Datum::Null(TypeKind::kInt64));
  EXPECT_TRUE(sel.empty());
}

TEST(KernelsTest, CompareChainsThroughInputSelection) {
  Column c(TypeKind::kInt64);
  for (int i = 0; i < 10; ++i) c.AppendInt64(i);
  auto sel1 = CompareScalar(c, CompareOp::kGe, Datum::Int64(3));
  auto sel2 = CompareScalar(c, CompareOp::kLe, Datum::Int64(6), &sel1);
  EXPECT_EQ(sel2, (SelectionVector{3, 4, 5, 6}));
}

TEST(KernelsTest, BetweenMatchesManualChain) {
  Column c(TypeKind::kFloat64);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 4.0);
  for (int i = 0; i < 1000; ++i) c.AppendFloat64(dist(rng));
  auto sel = Between(c, Datum::Float64(0.8), Datum::Float64(3.2));
  for (uint32_t i : sel) {
    EXPECT_GE(c.GetFloat64(i), 0.8);
    EXPECT_LE(c.GetFloat64(i), 3.2);
  }
  size_t manual = 0;
  for (size_t i = 0; i < c.length(); ++i) {
    double v = c.GetFloat64(i);
    if (v >= 0.8 && v <= 3.2) ++manual;
  }
  EXPECT_EQ(sel.size(), manual);
}

TEST(KernelsTest, StringCompare) {
  Column c(TypeKind::kString);
  c.AppendString("A");
  c.AppendString("N");
  c.AppendString("R");
  auto sel = CompareScalar(c, CompareOp::kEq, Datum::String("N"));
  EXPECT_EQ(sel, (SelectionVector{1}));
  sel = CompareScalar(c, CompareOp::kNe, Datum::String("N"));
  EXPECT_EQ(sel, (SelectionVector{0, 2}));
}

TEST(KernelsTest, TakeGathersRows) {
  auto batch = MakeTestBatch();
  auto taken = TakeBatch(*batch, {9, 0, 4});
  ASSERT_EQ(taken->num_rows(), 3u);
  EXPECT_EQ(taken->column(0)->GetInt64(0), 9);
  EXPECT_EQ(taken->column(0)->GetInt64(1), 0);
  EXPECT_EQ(taken->column(2)->GetString(2), "row4");
  EXPECT_TRUE(taken->column(1)->IsNull(1));  // row 0 val is null
}

TEST(KernelsTest, HashRowsGroupsEqualKeys) {
  auto k1 = MakeColumn(TypeKind::kString);
  auto k2 = MakeColumn(TypeKind::kInt32);
  // rows 0 and 2 identical keys; row 1 differs
  k1->AppendString("a");
  k1->AppendString("b");
  k1->AppendString("a");
  k2->AppendInt32(1);
  k2->AppendInt32(1);
  k2->AppendInt32(1);
  std::vector<uint64_t> hashes;
  HashRows({k1, k2}, &hashes);
  ASSERT_EQ(hashes.size(), 3u);
  EXPECT_EQ(hashes[0], hashes[2]);
  EXPECT_NE(hashes[0], hashes[1]);
  EXPECT_TRUE(RowsEqual({k1, k2}, 0, 2));
  EXPECT_FALSE(RowsEqual({k1, k2}, 0, 1));
}

TEST(KernelsTest, NullKeysHashAndCompareEqual) {
  auto k = MakeColumn(TypeKind::kInt64);
  k->AppendNull();
  k->AppendNull();
  k->AppendInt64(0);
  std::vector<uint64_t> hashes;
  HashRows({k}, &hashes);
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_TRUE(RowsEqual({k}, 0, 1));
  EXPECT_FALSE(RowsEqual({k}, 0, 2));  // null != 0
}

TEST(KernelsTest, SortIndicesMultiKey) {
  auto a = MakeColumn(TypeKind::kString);
  auto b = MakeColumn(TypeKind::kInt64);
  a->AppendString("y");
  b->AppendInt64(1);
  a->AppendString("x");
  b->AppendInt64(2);
  a->AppendString("x");
  b->AppendInt64(1);
  auto schema = MakeSchema({{"a", TypeKind::kString}, {"b", TypeKind::kInt64}});
  auto batch = MakeBatch(schema, {a, b});
  auto idx = SortIndices(*batch, {{0, true, true}, {1, true, true}});
  EXPECT_EQ(idx, (std::vector<uint32_t>{2, 1, 0}));
  idx = SortIndices(*batch, {{0, true, true}, {1, false, true}});
  EXPECT_EQ(idx, (std::vector<uint32_t>{1, 2, 0}));
}

TEST(KernelsTest, SortDescendingWithNulls) {
  auto a = MakeColumn(TypeKind::kFloat64);
  a->AppendFloat64(2.0);
  a->AppendNull();
  a->AppendFloat64(5.0);
  auto schema = MakeSchema({{"a", TypeKind::kFloat64}});
  auto batch = MakeBatch(schema, {a});
  auto idx = SortIndices(*batch, {{0, false, false}});  // desc, nulls last
  EXPECT_EQ(idx, (std::vector<uint32_t>{2, 0, 1}));
  idx = SortIndices(*batch, {{0, false, true}});  // desc, nulls first
  EXPECT_EQ(idx, (std::vector<uint32_t>{1, 2, 0}));
}

TEST(KernelsTest, SortOrdersNaNAfterEveryNumber) {
  // NaN sorts as the greatest float, as in Presto: last ascending, first
  // descending; NULLs keep their own place, and equal keys their order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto a = MakeColumn(TypeKind::kFloat64);
  a->AppendFloat64(3.0);   // 0
  a->AppendFloat64(nan);   // 1
  a->AppendFloat64(1.0);   // 2
  a->AppendNull();         // 3
  a->AppendFloat64(nan);   // 4
  a->AppendFloat64(-0.0);  // 5
  a->AppendFloat64(0.0);   // 6
  auto schema = MakeSchema({{"a", TypeKind::kFloat64}});
  auto batch = MakeBatch(schema, {a});
  EXPECT_EQ(SortIndices(*batch, {{0, true, true}}),
            (std::vector<uint32_t>{3, 5, 6, 2, 0, 1, 4}));
  EXPECT_EQ(SortIndices(*batch, {{0, true, false}}),
            (std::vector<uint32_t>{5, 6, 2, 0, 1, 4, 3}));
  EXPECT_EQ(SortIndices(*batch, {{0, false, false}}),
            (std::vector<uint32_t>{1, 4, 0, 2, 5, 6, 3}));

  // The smallest case: [3, NaN, 1] ascending is [1, 3, NaN].
  auto b = MakeColumn(TypeKind::kFloat64);
  b->AppendFloat64(3.0);
  b->AppendFloat64(nan);
  b->AppendFloat64(1.0);
  auto small = MakeBatch(schema, {b});
  EXPECT_EQ(SortIndices(*small, {{0, true, true}}),
            (std::vector<uint32_t>{2, 0, 1}));
}

// ---- IPC ----------------------------------------------------------------

TEST(IpcTest, BatchRoundtrip) {
  auto batch = MakeTestBatch();
  Bytes data = ipc::SerializeBatch(*batch);
  auto result = ipc::DeserializeBatch(ByteSpan(data.data(), data.size()));
  ASSERT_TRUE(result.ok()) << result.status();
  auto rt = *result;
  ASSERT_EQ(rt->num_rows(), batch->num_rows());
  ASSERT_TRUE(rt->schema()->Equals(*batch->schema()));
  for (size_t c = 0; c < batch->num_columns(); ++c) {
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      EXPECT_EQ(rt->column(c)->IsNull(i), batch->column(c)->IsNull(i));
      if (!batch->column(c)->IsNull(i)) {
        EXPECT_EQ(rt->column(c)->GetDatum(i), batch->column(c)->GetDatum(i));
      }
    }
  }
}

TEST(IpcTest, TableRoundtripMultipleBatches) {
  auto schema = MakeSchema({{"x", TypeKind::kInt64}});
  Table table(schema);
  for (int b = 0; b < 5; ++b) {
    auto col = MakeColumn(TypeKind::kInt64);
    for (int i = 0; i < 100; ++i) col->AppendInt64(b * 100 + i);
    table.AppendBatch(MakeBatch(schema, {col}));
  }
  Bytes data = ipc::SerializeTable(table);
  auto result = ipc::DeserializeTable(ByteSpan(data.data(), data.size()));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->batches().size(), 5u);
  EXPECT_EQ((*result)->num_rows(), 500u);
}

TEST(IpcTest, EmptyBatchRoundtrip) {
  auto schema = MakeSchema(
      {{"a", TypeKind::kString}, {"b", TypeKind::kFloat64}});
  auto batch = MakeBatch(
      schema, {MakeColumn(TypeKind::kString), MakeColumn(TypeKind::kFloat64)});
  Bytes data = ipc::SerializeBatch(*batch);
  auto result = ipc::DeserializeBatch(ByteSpan(data.data(), data.size()));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->num_rows(), 0u);
}

TEST(IpcTest, TruncationDetected) {
  auto batch = MakeTestBatch();
  Bytes data = ipc::SerializeBatch(*batch);
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{5}}) {
    auto result = ipc::DeserializeBatch(ByteSpan(data.data(), cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST(IpcTest, BitflipDetected) {
  auto batch = MakeTestBatch();
  Bytes data = ipc::SerializeBatch(*batch);
  data[data.size() / 2] ^= 0x40;
  auto result = ipc::DeserializeBatch(ByteSpan(data.data(), data.size()));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// A stream whose batch declares 2^40 rows but carries none, under a valid
// checksum: Corruption before any buffer is sized to the row count.
TEST(IpcTest, DeclaredRowCountBeyondBytesIsCorruption) {
  for (TypeKind type : {TypeKind::kBool, TypeKind::kInt32, TypeKind::kInt64,
                        TypeKind::kFloat64, TypeKind::kString,
                        TypeKind::kDate32}) {
    for (uint64_t null_count : {uint64_t{0}, uint64_t{1}}) {
      BufferWriter out;
      out.WriteLE<uint32_t>(0x41524F57);  // 'AROW'
      ipc::WriteSchema(*MakeSchema({{"v", type}}), &out);
      out.WriteVarint(1);                   // batches
      out.WriteVarint(uint64_t{1} << 40);   // rows
      out.WriteVarint(null_count);
      out.WriteLE<uint64_t>(Checksum64(out.span()));
      if (type == TypeKind::kInt64 && null_count == 0) {
        EXPECT_EQ(out.size(), 25u);
      }
      auto result = ipc::DeserializeTable(out.span());
      ASSERT_FALSE(result.ok()) << TypeName(type);
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
          << TypeName(type);
    }
  }
}

// Bytes between the last batch and the trailer, under a recomputed
// checksum, are Corruption: the stream must end where its batches do.
TEST(IpcTest, BytesBeforeTrailerAreCorruption) {
  Bytes data = ipc::SerializeBatch(*MakeTestBatch());
  ASSERT_TRUE(ipc::DeserializeBatch(data).ok());
  data.resize(data.size() - 8);
  data.insert(data.end(), 5, 0);
  BufferWriter out;
  out.WriteBytes(data.data(), data.size());
  out.WriteLE<uint64_t>(Checksum64(out.span()));
  auto result = ipc::DeserializeTable(out.span());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// A stream of one int64 column whose second of four rows is null, after
// `edit` rewrote its validity bytes and the trailer was recomputed.
Result<std::shared_ptr<Table>> DecodeEditedValidity(
    const std::function<void(uint8_t* validity)>& edit) {
  auto col = MakeColumn(TypeKind::kInt64);
  col->AppendInt64(7);
  col->AppendNull();
  col->AppendInt64(9);
  col->AppendInt64(11);
  Bytes data = ipc::SerializeBatch(
      *MakeBatch(MakeSchema({{"v", TypeKind::kInt64}}), {col}));
  const uint8_t validity[] = {1, 0, 1, 1};
  auto at = std::search(data.begin(), data.end(), std::begin(validity),
                        std::end(validity));
  if (at == data.end()) return Status::Internal("no validity bytes");
  edit(&*at);
  data.resize(data.size() - 8);
  const uint64_t checksum = Checksum64(data);
  data.insert(data.end(), reinterpret_cast<const uint8_t*>(&checksum),
              reinterpret_cast<const uint8_t*>(&checksum) + 8);
  return ipc::DeserializeTable(data);
}

// Kernels count and mask with validity bytes, so a byte other than 0 or 1,
// or a null count the bytes disagree with, is Corruption.
TEST(IpcTest, ValidityMustAgreeWithNullCount) {
  auto intact = DecodeEditedValidity([](uint8_t*) {});
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_TRUE((*intact)->batches()[0]->column(0)->IsNull(1));
  for (const auto& [row, byte] : {std::pair{0, uint8_t{2}},
                                  std::pair{1, uint8_t{0xFF}},
                                  std::pair{2, uint8_t{0}},
                                  std::pair{1, uint8_t{1}}}) {
    auto edited = DecodeEditedValidity([&](uint8_t* v) { v[row] = byte; });
    ASSERT_FALSE(edited.ok()) << "row " << row << " = " << int{byte};
    EXPECT_EQ(edited.status().code(), StatusCode::kCorruption);
  }
}

TEST(IpcTest, SchemaOnlyRoundtrip) {
  auto schema = MakeSchema({{"q", TypeKind::kBool, false},
                            {"w", TypeKind::kDate32, true}});
  BufferWriter w;
  ipc::WriteSchema(*schema, &w);
  BufferReader r(w.span());
  auto rt = ipc::ReadSchema(&r);
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE((*rt)->Equals(*schema));
  EXPECT_FALSE((*rt)->field(0).nullable);
}

// Property-style sweep: IPC roundtrip across all types with random nulls.
class IpcTypeSweep : public ::testing::TestWithParam<TypeKind> {};

TEST_P(IpcTypeSweep, RandomRoundtrip) {
  TypeKind type = GetParam();
  std::mt19937 rng(42);
  auto col = MakeColumn(type);
  for (int i = 0; i < 500; ++i) {
    if (rng() % 7 == 0) {
      col->AppendNull();
      continue;
    }
    switch (type) {
      case TypeKind::kBool: col->AppendBool(rng() & 1); break;
      case TypeKind::kInt32:
      case TypeKind::kDate32:
        col->AppendInt32(static_cast<int32_t>(rng()));
        break;
      case TypeKind::kInt64:
        col->AppendInt64(static_cast<int64_t>((uint64_t{rng()} << 32) | rng()));
        break;
      case TypeKind::kFloat64:
        col->AppendFloat64(std::uniform_real_distribution<>(-1e9, 1e9)(rng));
        break;
      case TypeKind::kString:
        col->AppendString(std::string(rng() % 20, 'a' + rng() % 26));
        break;
    }
  }
  auto schema = MakeSchema({{"c", type}});
  auto batch = MakeBatch(schema, {col});
  Bytes data = ipc::SerializeBatch(*batch);
  auto result = ipc::DeserializeBatch(ByteSpan(data.data(), data.size()));
  ASSERT_TRUE(result.ok()) << result.status();
  auto rt = *result;
  ASSERT_EQ(rt->num_rows(), batch->num_rows());
  for (size_t i = 0; i < batch->num_rows(); ++i) {
    EXPECT_EQ(rt->column(0)->GetDatum(i), batch->column(0)->GetDatum(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, IpcTypeSweep,
                         ::testing::Values(TypeKind::kBool, TypeKind::kInt32,
                                           TypeKind::kInt64,
                                           TypeKind::kFloat64,
                                           TypeKind::kString,
                                           TypeKind::kDate32));

}  // namespace
}  // namespace pocs::columnar
