// Tests for Parquet-lite: stats collection, writer/reader roundtrips across
// codecs and row-group boundaries, projection, footer-only access, and
// corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "columnar/ipc.h"
#include "common/checksum.h"
#include "common/hash.h"
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

// The per-row collector StatsCollector replaced, copied in as the
// reference and kept apart from src/format/: a Datum per row, compared by
// Datum::Compare for min and max, and a node-based set of value hashes for
// NDV, capped at 2^16 distinct hashes.
class RefStatsCollector {
 public:
  static constexpr size_t kNdvCap = 1 << 16;

  explicit RefStatsCollector(TypeKind type) : type_(type) {
    stats_.min = Datum::Null(type);
    stats_.max = Datum::Null(type);
  }

  void Update(const columnar::Column& col) {
    stats_.row_count += col.length();
    for (size_t i = 0; i < col.length(); ++i) {
      if (col.IsNull(i)) {
        ++stats_.null_count;
        continue;
      }
      Datum v = col.GetDatum(i);
      if (stats_.min.is_null() || v.Compare(stats_.min) < 0) stats_.min = v;
      if (stats_.max.is_null() || v.Compare(stats_.max) > 0) stats_.max = v;
      if (!stats_.ndv_capped) {
        uint64_t h;
        switch (type_) {
          case TypeKind::kString: h = HashString(col.GetString(i)); break;
          case TypeKind::kFloat64: h = HashValue(col.GetFloat64(i)); break;
          default: h = HashValue(v.AsInt64()); break;
        }
        distinct_.insert(h);
        if (distinct_.size() >= kNdvCap) stats_.ndv_capped = true;
      }
    }
    stats_.ndv = distinct_.size();
  }

  const ColumnStats& stats() const { return stats_; }

 private:
  TypeKind type_;
  ColumnStats stats_;
  std::unordered_set<uint64_t> distinct_;
};
static_assert(RefStatsCollector::kNdvCap == StatsCollector::kNdvCap);

Bytes StatsBytes(const ColumnStats& stats) {
  BufferWriter out;
  stats.Serialize(&out);
  return std::move(out).Take();
}

// A column of `type` from optional values; std::nullopt is a null row.
template <typename T>
columnar::ColumnPtr Col(TypeKind type,
                        const std::vector<std::optional<T>>& values) {
  auto col = MakeColumn(type);
  for (const auto& v : values) {
    if (v) {
      col->AppendDatum([&] {
        if constexpr (std::is_same_v<T, std::string>) {
          return Datum::String(*v);
        } else if constexpr (std::is_same_v<T, double>) {
          return Datum::Float64(*v);
        } else if constexpr (std::is_same_v<T, bool>) {
          return Datum::Bool(*v);
        } else {
          switch (type) {
            case TypeKind::kInt32: return Datum::Int32(static_cast<int32_t>(*v));
            case TypeKind::kDate32:
              return Datum::Date32(static_cast<int32_t>(*v));
            default: return Datum::Int64(static_cast<int64_t>(*v));
          }
        }
      }());
    } else {
      col->AppendNull();
    }
  }
  return col;
}

// Feeds `calls` to the reference, to one StatsCollector through Update,
// and to the writer's pair — a chunk collector reset per call, merged
// into a file collector — and expects the same serialized stats from all
// three, and from each chunk its reference's.
void ExpectSameStats(TypeKind type,
                     const std::vector<columnar::ColumnPtr>& calls,
                     const std::string& what) {
  RefStatsCollector ref(type);
  StatsCollector updated(type);
  StatsCollector file(type);
  StatsCollector chunk(TypeKind::kInt64);
  for (size_t k = 0; k < calls.size(); ++k) {
    ref.Update(*calls[k]);
    updated.Update(*calls[k]);
    chunk.Reset(type);
    chunk.Update(*calls[k]);
    RefStatsCollector chunk_ref(type);
    chunk_ref.Update(*calls[k]);
    EXPECT_EQ(StatsBytes(chunk.stats()), StatsBytes(chunk_ref.stats()))
        << what << ": call " << k << " alone";
    file.Merge(chunk);
  }
  const Bytes want = StatsBytes(ref.stats());
  EXPECT_EQ(StatsBytes(updated.stats()), want) << what << ": Update";
  EXPECT_EQ(StatsBytes(file.stats()), want) << what << ": Merge";
}

using F = std::optional<double>;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StatsDifferentialTest, NaNKeepsItsPlace) {
  const double neg_nan = -kNaN;
  const std::vector<std::pair<std::string, std::vector<std::vector<F>>>>
      cases = {
          {"NaN first", {{kNaN, 1.0, -3.0}}},
          {"NaN middle", {{1.0, kNaN, -3.0, 7.5}}},
          {"NaN last", {{1.0, -3.0, kNaN}}},
          {"NaN first in a later call", {{2.0, 4.0}, {kNaN, 5.0, -1.0}}},
          {"NaN after null rows", {{std::nullopt, kNaN, 4.0, -4.0}}},
          {"NaN first after an all-null call",
           {{std::nullopt, std::nullopt}, {kNaN, 3.0}, {-9.0}}},
          {"negative NaN first", {{neg_nan, kNaN, 0.5}, {-0.5}}},
          {"only NaNs", {{kNaN, neg_nan}, {kNaN}}},
          {"NaN then values then NaN",
           {{kNaN}, {1.0, 2.0}, {kNaN, -8.0}, {9.0}}},
          {"infinities", {{kInf, -kInf, kNaN}, {kInf}}},
          {"only +inf", {{kInf, kInf}}},
          {"only -inf", {{-kInf}, {-kInf}}},
      };
  for (const auto& [what, calls] : cases) {
    std::vector<columnar::ColumnPtr> cols;
    for (const auto& values : calls) cols.push_back(Col(TypeKind::kFloat64, values));
    ExpectSameStats(TypeKind::kFloat64, cols, what);
  }
}

TEST(StatsDifferentialTest, SignedZerosKeepTheirOrderOfArrival) {
  const std::vector<std::pair<std::string, std::vector<std::vector<F>>>>
      cases = {
          {"-0.0 before 0.0", {{-0.0, 0.0}}},
          {"0.0 before -0.0", {{0.0, -0.0}}},
          {"-0.0 before 0.0 across calls", {{-0.0}, {0.0, 1.0}}},
          {"0.0 before -0.0 across calls", {{0.0, -1.0}, {-0.0, 1.0}, {0.0}}},
          {"zeros as max", {{-5.0, 0.0, -0.0}, {-0.0}}},
          {"zeros as min", {{5.0, -0.0}, {0.0, 3.0}}},
      };
  for (const auto& [what, calls] : cases) {
    std::vector<columnar::ColumnPtr> cols;
    for (const auto& values : calls) cols.push_back(Col(TypeKind::kFloat64, values));
    ExpectSameStats(TypeKind::kFloat64, cols, what);
  }
}

TEST(StatsDifferentialTest, NullsAndEmptyColumns) {
  for (TypeKind type : {TypeKind::kBool, TypeKind::kInt32, TypeKind::kInt64,
                        TypeKind::kFloat64, TypeKind::kString,
                        TypeKind::kDate32}) {
    const std::string what = std::string(columnar::TypeName(type));
    auto empty = MakeColumn(type);
    auto all_null = MakeColumn(type);
    for (int i = 0; i < 5; ++i) all_null->AppendNull();
    auto some = MakeColumn(type);
    for (int i = 0; i < 9; ++i) {
      if (i % 3 == 1) {
        some->AppendNull();
        continue;
      }
      switch (type) {
        case TypeKind::kBool: some->AppendBool(i % 2 == 0); break;
        case TypeKind::kInt32:
        case TypeKind::kDate32: some->AppendInt32(7 - i); break;
        case TypeKind::kInt64: some->AppendInt64(7 - i); break;
        case TypeKind::kFloat64: some->AppendFloat64(0.5 * (7 - i)); break;
        case TypeKind::kString: some->AppendString(std::string(i, 'q')); break;
      }
    }
    ExpectSameStats(type, {empty}, what + " empty");
    ExpectSameStats(type, {all_null}, what + " all null");
    ExpectSameStats(type, {empty, all_null, empty}, what + " no values");
    ExpectSameStats(type, {all_null, some, empty, some}, what + " nulls");
    ExpectSameStats(type, {some, all_null}, what + " trailing nulls");
  }
}

TEST(StatsDifferentialTest, StringsOrderAsUnsignedBytes) {
  using S = std::optional<std::string>;
  const std::string long_a(5000, 'a');
  const std::string long_b = long_a + "b";
  const std::vector<std::pair<std::string, std::vector<std::vector<S>>>>
      cases = {
          {"empty string", {{"b", "", "a"}, {""}}},
          {"only empty strings", {{"", ""}, {std::nullopt, ""}}},
          {"long strings", {{long_b, long_a}, {long_a + "a", "a"}}},
          {"high bytes", {{"a", "\x80", "\xff"}, {"\x7f", "\xc3\xa9"}}},
          {"high byte prefixes",
           {{std::string("\xff\x00", 2), "\xff"}, {"\xfe\xff\xff", "\x80"}}},
          {"embedded zero bytes",
           {{std::string("a\0b", 3), std::string("a\0", 2), "a"}}},
          {"nulls between", {{std::nullopt, "m"}, {std::nullopt}, {"c", "x"}}},
      };
  for (const auto& [what, calls] : cases) {
    std::vector<columnar::ColumnPtr> cols;
    for (const auto& values : calls) cols.push_back(Col(TypeKind::kString, values));
    ExpectSameStats(TypeKind::kString, cols, what);
  }
}

TEST(StatsDifferentialTest, IntegerExtremes) {
  using I = std::optional<int64_t>;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  ExpectSameStats(TypeKind::kInt64,
                  {Col<int64_t>(TypeKind::kInt64, {I{0}, I{kMax}, I{-1}}),
                   Col<int64_t>(TypeKind::kInt64, {I{kMin}, std::nullopt})},
                  "int64 extremes");
  ExpectSameStats(TypeKind::kInt64,
                  {Col<int64_t>(TypeKind::kInt64, {I{kMax}, I{kMax}}),
                   Col<int64_t>(TypeKind::kInt64, {I{kMax}})},
                  "only INT64_MAX");
  ExpectSameStats(TypeKind::kInt64,
                  {Col<int64_t>(TypeKind::kInt64, {I{kMin}}),
                   Col<int64_t>(TypeKind::kInt64, {I{kMin}, I{kMin}})},
                  "only INT64_MIN");
  constexpr int64_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax32 = std::numeric_limits<int32_t>::max();
  for (TypeKind type : {TypeKind::kInt32, TypeKind::kDate32}) {
    ExpectSameStats(type,
                    {Col<int64_t>(type, {I{kMax32}, I{0}}),
                     Col<int64_t>(type, {std::nullopt, I{kMin32}, I{-1}})},
                    std::string(columnar::TypeName(type)) + " extremes");
  }
  using B = std::optional<bool>;
  ExpectSameStats(TypeKind::kBool,
                  {Col<bool>(TypeKind::kBool, {B{true}, B{true}}),
                   Col<bool>(TypeKind::kBool, {std::nullopt, B{false}})},
                  "bool");
}

// NDV is exact below the cap, saturates at it, and is flagged once the
// distinct values reach it, whichever call they arrive in.
TEST(StatsDifferentialTest, NdvAroundTheCap) {
  constexpr int64_t kCap = StatsCollector::kNdvCap;
  for (int64_t distinct : {kCap - 1, kCap, kCap + 1}) {
    // Three calls: a third of the values, all of them again (duplicates),
    // then the rest with some nulls.
    auto first = MakeColumn(TypeKind::kInt64);
    auto again = MakeColumn(TypeKind::kInt64);
    auto rest = MakeColumn(TypeKind::kInt64);
    for (int64_t v = 0; v < distinct / 3; ++v) first->AppendInt64(v * 7919);
    for (int64_t v = 0; v < distinct; v += 2) again->AppendInt64(v * 7919);
    for (int64_t v = distinct - 1; v >= 0; --v) {
      if (v % 1000 == 0) rest->AppendNull();
      rest->AppendInt64(v * 7919);
    }
    const std::string what = "ndv " + std::to_string(distinct);
    ExpectSameStats(TypeKind::kInt64, {first, again, rest}, what);
    StatsCollector collector(TypeKind::kInt64);
    for (const auto& col : {first, again, rest}) collector.Update(*col);
    EXPECT_EQ(collector.stats().ndv,
              static_cast<uint64_t>(std::min(distinct, kCap)))
        << what;
    EXPECT_EQ(collector.stats().ndv_capped, distinct >= kCap) << what;

    auto strings = MakeColumn(TypeKind::kString);
    auto doubles = MakeColumn(TypeKind::kFloat64);
    for (int64_t v = 0; v < distinct; ++v) {
      strings->AppendString("s" + std::to_string(v));
      doubles->AppendFloat64(static_cast<double>(v) * 0.25);
    }
    ExpectSameStats(TypeKind::kString, {strings, strings}, what + " strings");
    ExpectSameStats(TypeKind::kFloat64, {doubles}, what + " doubles");
  }
}

// Seeded random calls over small value domains, so duplicates, ties and
// special values meet in every order.
TEST(StatsDifferentialTest, RandomCallsMatchTheReference) {
  std::mt19937_64 rng(20261020);
  const double doubles[] = {kNaN, -kNaN, 0.0, -0.0, 1.5, -1.5, kInf, -kInf};
  const std::string strings[] = {"", "a", "ab", "\x80", "\xff", "b", "aa"};
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(), -1, 0, 1, 42,
                          std::numeric_limits<int64_t>::max()};
  for (TypeKind type : {TypeKind::kBool, TypeKind::kInt32, TypeKind::kInt64,
                        TypeKind::kFloat64, TypeKind::kString,
                        TypeKind::kDate32}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<columnar::ColumnPtr> calls;
      const size_t num_calls = 1 + rng() % 4;
      const unsigned null_pct = static_cast<unsigned>(rng() % 4) * 30;
      for (size_t k = 0; k < num_calls; ++k) {
        auto col = MakeColumn(type);
        for (size_t n = rng() % 12; n > 0; --n) {
          if (rng() % 100 < null_pct) {
            col->AppendNull();
            continue;
          }
          switch (type) {
            case TypeKind::kBool: col->AppendBool(rng() % 2 == 0); break;
            case TypeKind::kInt32:
            case TypeKind::kDate32:
              col->AppendInt32(static_cast<int32_t>(rng() % 7) - 3);
              break;
            case TypeKind::kInt64: col->AppendInt64(ints[rng() % 6]); break;
            case TypeKind::kFloat64:
              col->AppendFloat64(doubles[rng() % 8]);
              break;
            case TypeKind::kString: col->AppendString(strings[rng() % 7]); break;
          }
        }
        calls.push_back(std::move(col));
      }
      ExpectSameStats(type, calls,
                      std::string(columnar::TypeName(type)) + " trial " +
                          std::to_string(trial));
    }
  }
}

// The bytes of a multi-group file with every type, nulls, NaN and signed
// zeros, dictionary and plain string pages: pinned to the checksum the
// per-row collector and the map-based dictionary encoder wrote, so every
// chunk's stats, the file's stats and each page stay as they were.
TEST(ParquetLiteTest, MultiGroupFileBytesArePinned) {
  const auto schema = MakeSchema({{"b", TypeKind::kBool},
                                  {"i", TypeKind::kInt32},
                                  {"l", TypeKind::kInt64},
                                  {"d", TypeKind::kFloat64},
                                  {"flag", TypeKind::kString},
                                  {"name", TypeKind::kString},
                                  {"day", TypeKind::kDate32}});
  std::mt19937_64 rng(7);
  const char* flags[] = {"R", "A", "N", "\xc3\xa9"};
  std::vector<std::shared_ptr<columnar::Column>> built;
  for (const auto& field : schema->fields()) {
    built.push_back(MakeColumn(field.type));
  }
  auto col = [&](size_t c) { return built[c]; };
  for (int64_t r = 0; r < 1000; ++r) {
    const bool null = rng() % 11 == 0;
    col(0)->AppendBool(rng() % 2 == 0);
    if (null) {
      col(1)->AppendNull();
    } else {
      col(1)->AppendInt32(static_cast<int32_t>(rng() % 2000) - 1000);
    }
    col(2)->AppendInt64(static_cast<int64_t>(rng()));
    if (r % 97 == 5) {
      col(3)->AppendFloat64(kNaN);
    } else if (r % 89 == 1) {
      col(3)->AppendFloat64(r % 2 == 0 ? 0.0 : -0.0);
    } else if (null) {
      col(3)->AppendNull();
    } else {
      col(3)->AppendFloat64(static_cast<double>(rng() % 10000) / 8.0 - 600.0);
    }
    if (null) {
      col(4)->AppendNull();
    } else {
      col(4)->AppendString(flags[rng() % 4]);
    }
    col(5)->AppendString("name-" + std::to_string(rng() % 700));
    col(6)->AppendInt32(columnar::DaysFromCivil(1992, 1, 1) +
                        static_cast<int32_t>(r));
  }
  const std::vector<columnar::ColumnPtr> cols(built.begin(), built.end());
  WriterOptions options;
  options.rows_per_group = 128;
  FileWriter writer(schema, options);
  ASSERT_TRUE(writer.WriteBatch(*MakeBatch(schema, cols)).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok()) << file.status();
  auto meta = ReadFooter(*file);
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->row_groups.size(), 8u);
  EXPECT_EQ(file->size(), 40784u);
  EXPECT_EQ(Checksum64(*file), 0xf715a9b8d1b94244ULL);
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
