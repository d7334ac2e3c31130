// Equivalence tests for the vectorized kernels (DESIGN.md §15): every
// branch-light typed kernel is checked against a naive per-row reference
// over randomized seeded inputs — nulls, input selections (including
// empty), all-match / none-match literals — and the dictionary code-
// domain path is checked against full materialization at cardinalities
// 1, 255, and overflow-to-plain. The suite carries the `kernels` ctest
// label (run with `ctest -L kernels`, also under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "common/bloom.h"
#include "exec/hash_aggregator.h"
#include "exec/plan_executor.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "objectstore/object_store.h"
#include "ocs/client.h"
#include "ocs/storage_node.h"
#include "substrait/eval.h"
#include "substrait/rel.h"

namespace pocs::columnar {
namespace {

using format::DecodeDictionaryPage;
using format::DecodePage;
using format::DictionaryPage;
using format::EncodePage;
using format::FilterDictCodes;
using format::MaterializeDictionary;
using format::MaterializeDictionarySelected;
using format::TranslateDictPredicate;

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

// ---- naive per-row references (the pre-vectorization semantics) -----------

template <typename T>
int Cmp3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Three-way compare of row i against the literal under the one numeric
// rule (ComparesAsDouble): two integers (bool/int32/date32/int64) compare
// as int64, anything involving float64 as double — never an integer
// column against a truncated float literal.
int NaiveCmp(const Column& col, size_t i, const Datum& lit) {
  if (col.type() != TypeKind::kString &&
      ComparesAsDouble(col.type(), lit.type())) {
    return Cmp3<double>(col.GetDatum(i).AsDouble(), lit.AsDouble());
  }
  switch (col.type()) {
    case TypeKind::kBool:
      return Cmp3<int64_t>(col.GetBool(i) ? 1 : 0, lit.AsInt64());
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      return Cmp3<int64_t>(col.GetInt32(i), lit.AsInt64());
    case TypeKind::kInt64:
      return Cmp3<int64_t>(col.GetInt64(i), lit.AsInt64());
    case TypeKind::kFloat64:
      return Cmp3<double>(col.GetFloat64(i), lit.AsDouble());
    case TypeKind::kString: {
      const std::string_view v = col.GetString(i);
      const std::string& l = lit.string_value();
      return Cmp3<int>(v.compare(l), 0);
    }
  }
  return 0;
}

bool OpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

SelectionVector NaiveCompare(const Column& col, CompareOp op,
                             const Datum& lit,
                             const SelectionVector* input) {
  SelectionVector out;
  if (lit.is_null()) return out;
  auto test = [&](uint32_t i) {
    if (col.IsNull(i)) return;
    if (OpHolds(op, NaiveCmp(col, i, lit))) out.push_back(i);
  };
  if (input) {
    for (uint32_t i : *input) test(i);
  } else {
    for (uint32_t i = 0; i < col.length(); ++i) test(i);
  }
  return out;
}

SelectionVector NaiveBetween(const Column& col, const Datum& lo,
                             const Datum& hi, const SelectionVector* input) {
  SelectionVector out;
  if (lo.is_null() || hi.is_null()) return out;
  auto test = [&](uint32_t i) {
    if (col.IsNull(i)) return;
    if (NaiveCmp(col, i, lo) >= 0 && NaiveCmp(col, i, hi) <= 0) {
      out.push_back(i);
    }
  };
  if (input) {
    for (uint32_t i : *input) test(i);
  } else {
    for (uint32_t i = 0; i < col.length(); ++i) test(i);
  }
  return out;
}

ColumnPtr NaiveTake(const Column& col, const SelectionVector& sel) {
  auto out = MakeColumn(col.type());
  for (uint32_t i : sel) out->AppendFrom(col, i);
  return out;
}

void ExpectColumnsEqual(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.length(), b.length());
  ASSERT_EQ(a.null_count(), b.null_count());
  for (size_t i = 0; i < a.length(); ++i) {
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
    if (a.IsNull(i)) continue;
    ASSERT_EQ(a.GetDatum(i).ToString(), b.GetDatum(i).ToString())
        << "row " << i;
  }
}

// ---- randomized input generation ------------------------------------------

ColumnPtr RandomColumn(TypeKind type, size_t n, double null_prob,
                       std::mt19937_64* rng) {
  auto col = MakeColumn(type);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int64_t> ints(-50, 50);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < null_prob) {
      col->AppendNull();
      continue;
    }
    switch (type) {
      case TypeKind::kBool: col->AppendBool(ints(*rng) > 0); break;
      case TypeKind::kInt32: col->AppendInt32(static_cast<int32_t>(ints(*rng))); break;
      case TypeKind::kDate32: col->AppendInt32(static_cast<int32_t>(ints(*rng))); break;
      case TypeKind::kInt64: col->AppendInt64(ints(*rng)); break;
      case TypeKind::kFloat64: col->AppendFloat64(ints(*rng) * 0.25); break;
      case TypeKind::kString:
        col->AppendString("v" + std::to_string(ints(*rng) + 50));
        break;
    }
  }
  return col;
}

Datum RandomLiteral(TypeKind type, std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> ints(-50, 50);
  switch (type) {
    case TypeKind::kBool: return Datum::Bool(ints(*rng) > 0);
    case TypeKind::kInt32: return Datum::Int32(static_cast<int32_t>(ints(*rng)));
    case TypeKind::kDate32: return Datum::Date32(static_cast<int32_t>(ints(*rng)));
    case TypeKind::kInt64: return Datum::Int64(ints(*rng));
    case TypeKind::kFloat64: return Datum::Float64(ints(*rng) * 0.25);
    case TypeKind::kString:
      return Datum::String("v" + std::to_string(ints(*rng) + 50));
  }
  return Datum::Null(type);
}

SelectionVector RandomSelection(size_t n, double keep_prob,
                                std::mt19937_64* rng) {
  SelectionVector sel;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < keep_prob) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

constexpr TypeKind kAllTypes[] = {TypeKind::kBool,    TypeKind::kInt32,
                                  TypeKind::kInt64,   TypeKind::kFloat64,
                                  TypeKind::kDate32,  TypeKind::kString};

// ---- CompareScalar / Between ----------------------------------------------

TEST(CompareScalarTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xC0FFEE);
  for (TypeKind type : kAllTypes) {
    for (double null_prob : {0.0, 0.25}) {
      ColumnPtr col = RandomColumn(type, 257, null_prob, &rng);
      const SelectionVector some = RandomSelection(col->length(), 0.5, &rng);
      const SelectionVector empty;
      for (CompareOp op : kAllOps) {
        for (int trial = 0; trial < 4; ++trial) {
          const Datum lit = RandomLiteral(type, &rng);
          EXPECT_EQ(CompareScalar(*col, op, lit, nullptr),
                    NaiveCompare(*col, op, lit, nullptr));
          EXPECT_EQ(CompareScalar(*col, op, lit, &some),
                    NaiveCompare(*col, op, lit, &some));
          EXPECT_EQ(CompareScalar(*col, op, lit, &empty),
                    NaiveCompare(*col, op, lit, &empty));
        }
      }
    }
  }
}

// Literals of the other numeric domain: integer columns against float64
// literals (2.5 must not truncate to 2) and float64 columns against
// integer literals, for CompareScalar and for Between with mixed bounds.
TEST(CompareScalarTest, CrossDomainLiteralsFollowOneRule) {
  std::mt19937_64 rng(0x2A5);
  std::uniform_int_distribution<int64_t> ints(-50, 50);
  for (TypeKind type : {TypeKind::kBool, TypeKind::kInt32, TypeKind::kDate32,
                        TypeKind::kInt64, TypeKind::kFloat64}) {
    ColumnPtr col = RandomColumn(type, 263, 0.2, &rng);
    const SelectionVector some = RandomSelection(col->length(), 0.5, &rng);
    for (int trial = 0; trial < 8; ++trial) {
      const Datum lit = type == TypeKind::kFloat64
                            ? Datum::Int64(ints(rng))
                            : Datum::Float64(ints(rng) * 0.25 + 0.5);
      for (CompareOp op : kAllOps) {
        EXPECT_EQ(CompareScalar(*col, op, lit, nullptr),
                  NaiveCompare(*col, op, lit, nullptr));
        EXPECT_EQ(CompareScalar(*col, op, lit, &some),
                  NaiveCompare(*col, op, lit, &some));
      }
      const Datum same = RandomLiteral(type, &rng);
      EXPECT_EQ(Between(*col, lit, same, &some),
                NaiveBetween(*col, lit, same, &some));
      EXPECT_EQ(Between(*col, same, lit, nullptr),
                NaiveBetween(*col, same, lit, nullptr));
    }
  }
  auto col = MakeColumn(TypeKind::kInt64);
  for (int64_t v : {1, 2, 3}) col->AppendInt64(v);
  EXPECT_EQ(CompareScalar(*col, CompareOp::kLt, Datum::Float64(2.5)),
            (SelectionVector{0, 1}));
  EXPECT_EQ(Between(*col, Datum::Int64(2), Datum::Float64(2.5)),
            (SelectionVector{1}));
}

TEST(CompareScalarTest, AllAndNoneMatch) {
  std::mt19937_64 rng(7);
  ColumnPtr col = RandomColumn(TypeKind::kInt64, 500, 0.0, &rng);
  // Values are in [-50, 50]: Lt 1000 keeps everything, Gt 1000 nothing.
  SelectionVector all = CompareScalar(*col, CompareOp::kLt,
                                      Datum::Int64(1000), nullptr);
  ASSERT_EQ(all.size(), col->length());
  for (uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  EXPECT_TRUE(CompareScalar(*col, CompareOp::kGt, Datum::Int64(1000), nullptr)
                  .empty());
}

TEST(CompareScalarTest, NullLiteralMatchesNothing) {
  std::mt19937_64 rng(11);
  for (TypeKind type : kAllTypes) {
    ColumnPtr col = RandomColumn(type, 64, 0.2, &rng);
    for (CompareOp op : kAllOps) {
      EXPECT_TRUE(
          CompareScalar(*col, op, Datum::Null(type), nullptr).empty());
    }
  }
}

TEST(BetweenTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xBEEF);
  for (TypeKind type : kAllTypes) {
    if (type == TypeKind::kBool) continue;  // degenerate bounds domain
    for (double null_prob : {0.0, 0.25}) {
      ColumnPtr col = RandomColumn(type, 311, null_prob, &rng);
      const SelectionVector some = RandomSelection(col->length(), 0.4, &rng);
      for (int trial = 0; trial < 8; ++trial) {
        Datum a = RandomLiteral(type, &rng);
        Datum b = RandomLiteral(type, &rng);
        // Both orders: lo > hi must select nothing, matching the naive
        // double-sided test.
        EXPECT_EQ(Between(*col, a, b, nullptr),
                  NaiveBetween(*col, a, b, nullptr));
        EXPECT_EQ(Between(*col, a, b, &some), NaiveBetween(*col, a, b, &some));
      }
      EXPECT_TRUE(Between(*col, Datum::Null(type), RandomLiteral(type, &rng),
                          nullptr)
                      .empty());
      EXPECT_TRUE(Between(*col, RandomLiteral(type, &rng), Datum::Null(type),
                          nullptr)
                      .empty());
    }
  }
}

// ---- Take / TakeBatch ------------------------------------------------------

// A string column of random bytes, 0–40 per string. The last row is a
// non-null string of 5 bytes, so it ends on its chars buffer's last byte.
ColumnPtr RandomStrings(size_t n, double null_prob, std::mt19937_64* rng) {
  auto col = MakeColumn(TypeKind::kString);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<size_t> len(0, 40);
  for (size_t i = 0; i + 1 < n; ++i) {
    if (unit(*rng) < null_prob) {
      col->AppendNull();
      continue;
    }
    std::string s(len(*rng), '\0');
    for (char& c : s) c = static_cast<char>('a' + (*rng)() % 26);
    col->AppendString(s);
  }
  col->AppendString("tail!");
  return col;
}

// The same column over buffers that are slices of one larger owner, each
// ending where the owner's next buffer starts, and the chars ending at
// the owner's last byte: a read past a buffer's view is a read into
// another buffer, or off the end of the allocation.
ColumnPtr SlicedCopy(const Column& col) {
  const std::vector<ByteSpan> parts = {col.validity_buffer().span(),
                                       col.values_buffer().span(),
                                       col.chars_buffer().span()};
  auto owner = std::make_shared<Bytes>();
  std::vector<size_t> at;
  for (ByteSpan part : parts) {
    owner->resize((owner->size() + 7) & ~size_t{7}, 0xAB);  // keep alignment
    at.push_back(owner->size());
    owner->insert(owner->end(), part.begin(), part.end());
  }
  owner->shrink_to_fit();  // the allocation ends where the chars do
  const Buffer whole(owner, owner->data(), owner->size());
  return std::make_shared<Column>(
      col.type(), col.length(), col.null_count(),
      whole.Slice(at[0], parts[0].size()), whole.Slice(at[1], parts[1].size()),
      whole.Slice(at[2], parts[2].size()));
}

// The same column decoded from an IPC stream: slices of the stream.
ColumnPtr FromStream(const ColumnPtr& col) {
  auto schema = MakeSchema({{"c", col->type()}});
  auto table =
      ipc::DeserializeTable(ipc::SerializeBatch(*MakeBatch(schema, {col})));
  EXPECT_TRUE(table.ok()) << table.status();
  return (*table)->batches()[0]->column(0);
}

void ExpectSameBuffers(const Column& want, const Column& got) {
  EXPECT_EQ(want.null_count(), got.null_count());
  EXPECT_EQ(want.validity_buffer(), got.validity_buffer());
  EXPECT_EQ(want.values_buffer(), got.values_buffer());
  EXPECT_EQ(want.chars_buffer(), got.chars_buffer());
}

// Take against AppendFrom row by row, bit for bit, over every type and
// three validity shapes (null-free, mixed, all NULL), with strings of 0–40
// bytes; from built columns, from buffers sliced out of a larger owner
// and from an IPC stream; under empty, single-row, one-run, sparse, dense
// and full selections, and under row lists in other orders (a sort
// permutation, a join's repeated rows).
TEST(TakeTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xACE);
  constexpr size_t kRows = 401;
  for (TypeKind type : kAllTypes) {
    for (double null_prob : {0.0, 0.3, 1.0}) {
      const ColumnPtr built = type == TypeKind::kString
                                  ? RandomStrings(kRows, null_prob, &rng)
                                  : RandomColumn(type, kRows, null_prob, &rng);
      std::vector<SelectionVector> lists = {
          {}, {0}, {kRows - 1}, {kRows / 2}, {kRows - 2, kRows - 1}};
      for (double keep : {0.05, 0.1, 0.6, 0.95}) {
        lists.push_back(RandomSelection(kRows, keep, &rng));
      }
      SelectionVector all(kRows);
      for (uint32_t i = 0; i < kRows; ++i) all[i] = i;
      lists.push_back(all);
      const size_t begin = rng() % kRows;
      const size_t end = begin + 1 + rng() % (kRows - begin);
      lists.emplace_back(all.begin() + begin, all.begin() + end);  // one run
      SelectionVector shuffled = all;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      lists.push_back(shuffled);
      // A permutation that starts and ends like one run.
      SelectionVector swapped = all;
      std::swap(swapped[1], swapped[2]);
      lists.push_back(swapped);
      SelectionVector repeated;
      for (uint32_t i : RandomSelection(kRows, 0.3, &rng)) {
        repeated.insert(repeated.end(), {i, i, i});
      }
      lists.push_back(repeated);
      const ColumnPtr layouts[] = {built, SlicedCopy(*built),
                                   FromStream(built)};
      for (const ColumnPtr& col : layouts) {
        for (const SelectionVector& sel : lists) {
          SCOPED_TRACE(std::string(TypeName(type)) + " nulls " +
                       std::to_string(null_prob) + " rows " +
                       std::to_string(sel.size()));
          ColumnPtr got = Take(*col, sel);
          ColumnPtr want = NaiveTake(*col, sel);
          ExpectColumnsEqual(*want, *got);
          ExpectSameBuffers(*want, *got);
        }
      }
    }
  }
}

TEST(TakeTest, ContiguousRunsAndSingletons) {
  auto col = MakeColumn(TypeKind::kInt64);
  for (int i = 0; i < 100; ++i) col->AppendInt64(i * 3);
  // A long run, a gap, a singleton, another run: exercises the
  // memcpy-per-run gather path's run detection.
  SelectionVector sel;
  for (uint32_t i = 10; i < 40; ++i) sel.push_back(i);
  sel.push_back(50);
  for (uint32_t i = 90; i < 100; ++i) sel.push_back(i);
  ExpectColumnsEqual(*NaiveTake(*col, sel), *Take(*col, sel));
}

TEST(TakeBatchTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xB00);
  auto schema = MakeSchema({{"a", TypeKind::kInt64},
                            {"s", TypeKind::kString},
                            {"f", TypeKind::kFloat64}});
  std::vector<ColumnPtr> cols = {RandomColumn(TypeKind::kInt64, 200, 0.1, &rng),
                                 RandomColumn(TypeKind::kString, 200, 0.1, &rng),
                                 RandomColumn(TypeKind::kFloat64, 200, 0.0, &rng)};
  auto batch = MakeBatch(schema, cols);
  SelectionVector sel = RandomSelection(200, 0.35, &rng);
  RecordBatchPtr taken = TakeBatch(*batch, sel);
  ASSERT_EQ(taken->num_rows(), sel.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    ExpectColumnsEqual(*NaiveTake(*cols[c], sel), *taken->column(c));
  }
}

// ---- HashRows --------------------------------------------------------------

TEST(HashRowsTest, EqualRowsHashEqual) {
  std::mt19937_64 rng(0x5EED);
  // Two key columns; rows duplicated (row i == row i + n).
  const size_t n = 128;
  auto k1 = RandomColumn(TypeKind::kInt64, n, 0.2, &rng);
  auto k2 = RandomColumn(TypeKind::kString, n, 0.2, &rng);
  auto d1 = MakeColumn(TypeKind::kInt64);
  auto d2 = MakeColumn(TypeKind::kString);
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      d1->AppendFrom(*k1, i);
      d2->AppendFrom(*k2, i);
    }
  }
  std::vector<uint64_t> hashes;
  HashRows({d1, d2}, &hashes);
  ASSERT_EQ(hashes.size(), 2 * n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hashes[i], hashes[i + n]) << "row " << i;
    EXPECT_TRUE(RowsEqual({d1, d2}, i, i + n));
  }
}

// Column of `strings` laid end to end in one chars buffer of exactly
// their bytes, as an IPC frame's slice holds them.
ColumnPtr StringSlice(const std::vector<std::string>& strings) {
  std::vector<int32_t> offsets{0};
  std::string chars;
  for (const std::string& s : strings) {
    chars += s;
    offsets.push_back(static_cast<int32_t>(chars.size()));
  }
  return std::make_shared<Column>(TypeKind::kString, strings.size(), 0,
                                  Buffer(), Buffer::Adopt(std::move(offsets)),
                                  Buffer::Adopt(std::move(chars)));
}

TEST(HashRowsTest, StringsHashByTheirOwnBytes) {
  // Equal strings hash equal whatever precedes or follows them in their
  // chars buffer: ending on the buffer's last byte, in a buffer under 8
  // bytes, or followed by different bytes (a built column against a slice
  // of an IPC frame).
  const std::string text = "abcdefghijkl";
  for (size_t len = 0; len <= text.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    const std::string s = text.substr(0, len);
    std::vector<uint64_t> alone, before_a, before_b, after_short, after_long;
    HashRows({StringSlice({s})}, &alone);
    HashRows({StringSlice({s, "PQRSTUVWXYZ"})}, &before_a);
    HashRows({StringSlice({s, "0123456789"})}, &before_b);
    HashRows({StringSlice({"#", s})}, &after_short);
    HashRows({StringSlice({"###########", s})}, &after_long);
    auto built = MakeColumn(TypeKind::kString);
    built->AppendString(s);
    built->AppendString("tail bytes");
    std::vector<uint64_t> from_built;
    HashRows({built}, &from_built);
    EXPECT_EQ(alone[0], before_a[0]);
    EXPECT_EQ(alone[0], before_b[0]);
    EXPECT_EQ(alone[0], after_short[1]);
    EXPECT_EQ(alone[0], after_long[1]);
    EXPECT_EQ(alone[0], from_built[0]);
  }
  // Trailing zero bytes count: "a" and "a\0" hash apart.
  std::vector<uint64_t> hashes;
  HashRows({StringSlice({"a", std::string("a\0", 2), "b"})}, &hashes);
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(HashRowsTest, Deterministic) {
  std::mt19937_64 rng(0xD0);
  auto k = RandomColumn(TypeKind::kInt32, 333, 0.15, &rng);
  std::vector<uint64_t> a, b;
  HashRows({k}, &a);
  HashRows({k}, &b);
  EXPECT_EQ(a, b);
}

// ---- selection-aware FilterSelection / BloomSelectRows ---------------------

TEST(FilterSelectionTest, InputSelectionRestrictsOutput) {
  std::mt19937_64 rng(0xF1);
  auto schema = MakeSchema({{"v", TypeKind::kInt64}});
  auto col = RandomColumn(TypeKind::kInt64, 300, 0.2, &rng);
  auto batch = MakeBatch(schema, {col});
  substrait::Expression pred = substrait::Expression::Call(
      substrait::ScalarFunc::kGt,
      {substrait::Expression::FieldRef(0, TypeKind::kInt64),
       substrait::Expression::Literal(Datum::Int64(0))},
      TypeKind::kBool);

  auto full = substrait::FilterSelection(pred, *batch);
  ASSERT_TRUE(full.ok());
  auto full2 = substrait::FilterSelection(pred, *batch, nullptr);
  ASSERT_TRUE(full2.ok());
  EXPECT_EQ(*full, *full2);
  EXPECT_EQ(*full, NaiveCompare(*col, CompareOp::kGt, Datum::Int64(0),
                                nullptr));

  for (double keep : {0.0, 0.3, 1.0}) {
    SelectionVector input = RandomSelection(300, keep, &rng);
    auto restricted = substrait::FilterSelection(pred, *batch, &input);
    ASSERT_TRUE(restricted.ok());
    EXPECT_EQ(*restricted, NaiveCompare(*col, CompareOp::kGt,
                                        Datum::Int64(0), &input));
    // Invariant: output is a subset of the input selection.
    size_t j = 0;
    for (uint32_t r : *restricted) {
      while (j < input.size() && input[j] < r) ++j;
      ASSERT_TRUE(j < input.size() && input[j] == r);
    }
  }
}

TEST(BloomSelectRowsTest, NoFalseNegativesAndNullsDropped) {
  std::mt19937_64 rng(0xB10);
  auto col = RandomColumn(TypeKind::kInt64, 400, 0.2, &rng);
  BloomFilter bloom(1024, 3, 42);
  std::vector<bool> inserted(col->length(), false);
  for (size_t i = 0; i < col->length(); i += 3) {
    if (col->IsNull(i)) continue;
    bloom.Add(static_cast<uint64_t>(col->GetInt64(i)));
    inserted[i] = true;
  }
  SelectionVector sel = exec::BloomSelectRows(*col, bloom);
  std::vector<bool> selected(col->length(), false);
  for (uint32_t i : sel) {
    selected[i] = true;
    EXPECT_FALSE(col->IsNull(i)) << "null row " << i << " passed the bloom";
  }
  for (size_t i = 0; i < col->length(); ++i) {
    if (inserted[i]) {
      EXPECT_TRUE(selected[i]) << "false negative at " << i;
    }
  }
  // Non-integer key column: advisory filter keeps every row.
  auto scol = RandomColumn(TypeKind::kString, 50, 0.0, &rng);
  EXPECT_EQ(exec::BloomSelectRows(*scol, bloom).size(), scol->length());
}

// ---- dictionary code-domain path -------------------------------------------

// Encode `col` and decode the dictionary form, asserting it IS
// dictionary-encoded.
DictionaryPage MustDict(const Column& col) {
  const Field field{"s", TypeKind::kString};
  Bytes page = EncodePage(col, field);
  auto dict = DecodeDictionaryPage(page, field, col.length());
  EXPECT_TRUE(dict.ok()) << dict.status();
  EXPECT_TRUE(dict->has_value()) << "page unexpectedly plain";
  return std::move(**dict);
}

ColumnPtr DictColumn(size_t n, size_t cardinality, double null_prob,
                     std::mt19937_64* rng) {
  auto col = MakeColumn(TypeKind::kString);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<size_t> pick(0, cardinality - 1);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < null_prob) {
      col->AppendNull();
    } else {
      col->AppendString("val_" + std::to_string(pick(*rng)));
    }
  }
  return col;
}

TEST(DictionaryKernelTest, MaterializeMatchesDecodePage) {
  std::mt19937_64 rng(0xD1C7);
  for (size_t cardinality : {size_t{1}, size_t{8}, size_t{255}}) {
    for (double null_prob : {0.0, 0.2}) {
      ColumnPtr col = DictColumn(600, cardinality, null_prob, &rng);
      const Field field{"s", TypeKind::kString};
      Bytes page = EncodePage(*col, field);
      auto dict = DecodeDictionaryPage(page, field, col->length());
      ASSERT_TRUE(dict.ok()) << dict.status();
      if (!dict->has_value()) continue;  // plain won the size contest
      auto full = DecodePage(page, field, col->length());
      ASSERT_TRUE(full.ok());
      ColumnPtr materialized = MaterializeDictionary(**dict);
      ExpectColumnsEqual(**full, *materialized);
      ExpectColumnsEqual(*col, *materialized);
    }
  }
}

TEST(DictionaryKernelTest, OverflowToPlain) {
  // >255 distinct values: the writer must fall back to plain encoding
  // and DecodeDictionaryPage must report nullopt.
  auto col = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 400; ++i) {
    col->AppendString("unique_value_" + std::to_string(i));
  }
  const Field field{"s", TypeKind::kString};
  EXPECT_FALSE(format::DictionaryEncodeString(*col).has_value());
  Bytes page = EncodePage(*col, field);
  auto dict = DecodeDictionaryPage(page, field, col->length());
  ASSERT_TRUE(dict.ok());
  EXPECT_FALSE(dict->has_value());
  auto full = DecodePage(page, field, col->length());
  ASSERT_TRUE(full.ok());
  ExpectColumnsEqual(*col, **full);
}

TEST(DictionaryKernelTest, CodeDomainFilterMatchesCompareScalar) {
  std::mt19937_64 rng(0xF117);
  for (size_t cardinality : {size_t{1}, size_t{8}, size_t{255}}) {
    for (double null_prob : {0.0, 0.2}) {
      ColumnPtr col = DictColumn(500, cardinality, null_prob, &rng);
      DictionaryPage dict = MustDict(*col);
      const SelectionVector some = RandomSelection(col->length(), 0.5, &rng);
      const SelectionVector empty;
      for (CompareOp op : kAllOps) {
        for (const std::string& value :
             {std::string("val_0"), std::string("val_7"),
              std::string("zzz_absent"), std::string("")}) {
          const Datum lit = Datum::String(value);
          std::vector<uint8_t> match = TranslateDictPredicate(dict, op, lit);
          ASSERT_EQ(match.size(), 256u);
          EXPECT_EQ(FilterDictCodes(dict, match, nullptr),
                    CompareScalar(*col, op, lit, nullptr));
          EXPECT_EQ(FilterDictCodes(dict, match, &some),
                    CompareScalar(*col, op, lit, &some));
          EXPECT_TRUE(FilterDictCodes(dict, match, &empty).empty());
        }
        // NULL literal: all-zero match table, nothing selected.
        std::vector<uint8_t> none =
            TranslateDictPredicate(dict, op, Datum::Null(TypeKind::kString));
        EXPECT_TRUE(FilterDictCodes(dict, none, nullptr).empty());
      }
    }
  }
}

TEST(DictionaryKernelTest, SelectedMaterializationPreservesSurvivors) {
  std::mt19937_64 rng(0x1A7E);
  ColumnPtr col = DictColumn(300, 5, 0.15, &rng);
  DictionaryPage dict = MustDict(*col);
  for (double keep : {0.0, 0.3, 1.0}) {
    SelectionVector sel = RandomSelection(col->length(), keep, &rng);
    ColumnPtr partial = MaterializeDictionarySelected(dict, sel);
    ASSERT_EQ(partial->length(), col->length());
    ASSERT_EQ(partial->null_count(), col->null_count());
    size_t s = 0;
    for (size_t i = 0; i < col->length(); ++i) {
      ASSERT_EQ(partial->IsNull(i), col->IsNull(i)) << "row " << i;
      const bool is_selected = s < sel.size() && sel[s] == i;
      if (is_selected) ++s;
      if (col->IsNull(i)) continue;
      if (is_selected) {
        EXPECT_EQ(partial->GetString(i), col->GetString(i)) << "row " << i;
      } else {
        EXPECT_EQ(partial->GetString(i), "") << "placeholder row " << i;
      }
    }
    // Gathering the survivors out of the partial column must equal
    // gathering them out of the fully decoded column — the invariant the
    // executor's TakeBatch materialization relies on.
    ExpectColumnsEqual(*NaiveTake(*col, sel), *Take(*partial, sel));
  }
}

// ---- end-to-end: storage node with a string predicate ----------------------

columnar::SchemaPtr DictSchema() {
  return MakeSchema({{"id", TypeKind::kInt64},
                     {"flag", TypeKind::kString},
                     {"status", TypeKind::kString},
                     {"qty", TypeKind::kFloat64}});
}

// 1200 rows in 4 row groups; flag cycles R/A/N, status cycles O/F.
Bytes DictFile() {
  format::WriterOptions options;
  options.rows_per_group = 300;
  format::FileWriter writer(DictSchema(), options);
  auto id = MakeColumn(TypeKind::kInt64);
  auto flag = MakeColumn(TypeKind::kString);
  auto status = MakeColumn(TypeKind::kString);
  auto qty = MakeColumn(TypeKind::kFloat64);
  const char* flags[] = {"R", "A", "N"};
  const char* statuses[] = {"O", "F"};
  for (int i = 0; i < 1200; ++i) {
    id->AppendInt64(i);
    flag->AppendString(flags[i % 3]);
    status->AppendString(statuses[i % 2]);
    qty->AppendFloat64(static_cast<double>(i % 50));
  }
  auto batch = MakeBatch(DictSchema(), {id, flag, status, qty});
  EXPECT_TRUE(writer.WriteBatch(*batch).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  return *file;
}

TEST(StorageNodeDictTest, StringPredicateUsesCodeDomain) {
  auto store = std::make_shared<objectstore::ObjectStore>();
  ASSERT_TRUE(store->CreateBucket("d").ok());
  const Bytes file = DictFile();
  ASSERT_TRUE(store->Put("d", "f0", file).ok());
  ocs::StorageNode node(store, ocs::StorageNodeConfig{1.0});

  substrait::Plan plan;
  auto read = std::make_unique<substrait::Rel>();
  read->kind = substrait::RelKind::kRead;
  read->bucket = "d";
  read->object = "f0";
  read->base_schema = DictSchema();
  auto filter = std::make_unique<substrait::Rel>();
  filter->kind = substrait::RelKind::kFilter;
  filter->input = std::move(read);
  filter->predicate = substrait::Expression::Call(
      substrait::ScalarFunc::kAnd,
      {substrait::Expression::Call(
           substrait::ScalarFunc::kEq,
           {substrait::Expression::FieldRef(1, TypeKind::kString),
            substrait::Expression::Literal(Datum::String("R"))},
           TypeKind::kBool),
       substrait::Expression::Call(
           substrait::ScalarFunc::kLt,
           {substrait::Expression::FieldRef(3, TypeKind::kFloat64),
            substrait::Expression::Literal(Datum::Float64(25.0))},
           TypeKind::kBool)},
      TypeKind::kBool);
  plan.root = std::move(filter);

  auto result = node.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  // flag == 'R' keeps 1 in 3 rows; qty < 25 keeps half of those.
  EXPECT_EQ(result->stats.rows_scanned, 1200u);
  EXPECT_EQ(result->stats.rows_output, 200u);
  // The string conjunct must have run in the code domain, and the
  // surviving rows must have been late-materialized (flag and status are
  // both dictionary-encoded string columns).
  EXPECT_GT(result->stats.rows_dict_filtered, 0u);
  EXPECT_GT(result->stats.rows_late_materialized, 0u);

  // The answer must equal a full decode + naive filter of the same file.
  auto table = ocs::OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  auto reader = format::FileReader::Open(file);
  ASSERT_TRUE(reader.ok());
  auto all = (*reader)->ReadAll();
  ASSERT_TRUE(all.ok());
  std::vector<std::string> want;
  for (const auto& b : (*all)->batches()) {
    for (size_t i = 0; i < b->num_rows(); ++i) {
      if (b->column(1)->GetString(i) == "R" &&
          b->column(3)->GetFloat64(i) < 25.0) {
        want.push_back(std::to_string(b->column(0)->GetInt64(i)) + "|" +
                       std::string(b->column(1)->GetString(i)) + "|" +
                       std::string(b->column(2)->GetString(i)) + "|" +
                       std::to_string(b->column(3)->GetFloat64(i)));
      }
    }
  }
  std::vector<std::string> got;
  for (const auto& b : (*table)->batches()) {
    for (size_t i = 0; i < b->num_rows(); ++i) {
      got.push_back(std::to_string(b->column(0)->GetInt64(i)) + "|" +
                    std::string(b->column(1)->GetString(i)) + "|" +
                    std::string(b->column(2)->GetString(i)) + "|" +
                    std::to_string(b->column(3)->GetFloat64(i)));
    }
  }
  EXPECT_EQ(want, got);

  // Partially materialized dictionary columns must never enter the
  // row-group cache; fully decoded non-string columns must.
  ASSERT_TRUE(node.rowgroup_cache() != nullptr);
  EXPECT_EQ(node.rowgroup_cache()->Lookup(
                ocs::RowGroupCacheKey{"d/f0", result->stats.object_version,
                                      0, 1}),
            nullptr);
  EXPECT_NE(node.rowgroup_cache()->Lookup(
                ocs::RowGroupCacheKey{"d/f0", result->stats.object_version,
                                      0, 3}),
            nullptr);
}

// ---- differential tests: typed-span evaluator and aggregator ---------------
//
// Seeded random, well-typed expression trees over a nullable batch holding
// every column type run through substrait::Evaluate and FilterSelection and
// through a row-at-a-time reference of the evaluator's semantics kept
// here; HashAggregator is checked against a per-row reference the same
// way. Values include zero divisors, -1 and INT64_MIN (integer overflow),
// NaN, -0.0 and infinities; literals sit on either side and whole
// subtrees can be literal-only; selections are absent, partial or empty.

using substrait::AggFunc;
using substrait::AggregateSpec;
using substrait::Expression;
using substrait::ExprKind;
using substrait::ScalarFunc;

enum DiffCol { kColB = 0, kColI32, kColD32, kColI64, kColF64, kColS };

constexpr TypeKind kDiffTypes[] = {TypeKind::kBool,  TypeKind::kInt32,
                                   TypeKind::kDate32, TypeKind::kInt64,
                                   TypeKind::kFloat64, TypeKind::kString};

SchemaPtr DiffSchema() {
  return MakeSchema({{"b", TypeKind::kBool},
                     {"i32", TypeKind::kInt32},
                     {"d32", TypeKind::kDate32},
                     {"i64", TypeKind::kInt64},
                     {"f64", TypeKind::kFloat64},
                     {"s", TypeKind::kString}});
}

// A value of `type` from a small domain (so groups repeat and divisors hit
// zero) plus the special values, NULL with probability null_prob.
Datum DiffValue(TypeKind type, double null_prob, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  if (unit(*rng) < null_prob) return Datum::Null(type);
  std::uniform_int_distribution<int> small(-4, 4);
  const bool special = unit(*rng) < 0.12;
  switch (type) {
    case TypeKind::kBool:
      return Datum::Bool(small(*rng) > 0);
    case TypeKind::kInt32:
    case TypeKind::kDate32: {
      constexpr int32_t kEdges[] = {std::numeric_limits<int32_t>::min(),
                                    std::numeric_limits<int32_t>::max(), -1};
      const int32_t v =
          special ? kEdges[(small(*rng) + 4) % 3] : small(*rng);
      return type == TypeKind::kInt32 ? Datum::Int32(v) : Datum::Date32(v);
    }
    case TypeKind::kInt64: {
      constexpr int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max(), -1};
      return Datum::Int64(special ? kEdges[(small(*rng) + 4) % 3]
                                  : small(*rng));
    }
    case TypeKind::kFloat64: {
      constexpr double kEdges[] = {std::numeric_limits<double>::quiet_NaN(),
                                   -0.0, 0.0,
                                   std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity()};
      return Datum::Float64(special ? kEdges[(small(*rng) + 4) % 5]
                                    : small(*rng) * 0.5);
    }
    case TypeKind::kString: {
      constexpr const char* kWords[] = {"", "a", "ab", "b", "c"};
      return Datum::String(kWords[(small(*rng) + 4) % 5]);
    }
  }
  return Datum::Null(type);
}

RecordBatchPtr DiffBatch(size_t rows, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<ColumnPtr> cols;
  for (TypeKind type : kDiffTypes) {
    const double null_prob = unit(*rng) < 0.5 ? 0.0 : 0.2;
    auto col = MakeColumn(type);
    for (size_t r = 0; r < rows; ++r) {
      col->AppendDatum(DiffValue(type, null_prob, rng));
    }
    cols.push_back(std::move(col));
  }
  return MakeBatch(DiffSchema(), std::move(cols));
}

// Random expression trees whose declared types CheckCallTypes accepts.
class ExprGen {
 public:
  explicit ExprGen(std::mt19937_64* rng) : rng_(rng) {}

  Expression Numeric(int depth) {
    switch (depth <= 0 ? Pick(2) : Pick(5)) {
      case 0: {
        constexpr DiffCol kNumeric[] = {kColI32, kColD32, kColI64, kColF64};
        const DiffCol c = kNumeric[Pick(4)];
        return Expression::FieldRef(c, kDiffTypes[c]);
      }
      case 1: {
        constexpr TypeKind kTypes[] = {TypeKind::kInt32, TypeKind::kDate32,
                                       TypeKind::kInt64, TypeKind::kFloat64};
        return Expression::Literal(DiffValue(kTypes[Pick(4)], 0.08, rng_));
      }
      case 2:
      case 3: {
        Expression l = Numeric(depth - 1);
        Expression r = Numeric(depth - 1);
        const auto func = static_cast<ScalarFunc>(Pick(5));  // + - * / %
        TypeKind out = l.type == TypeKind::kFloat64 ||
                               r.type == TypeKind::kFloat64
                           ? TypeKind::kFloat64
                           : TypeKind::kInt64;
        if (out == TypeKind::kInt64 && Pick(6) == 0) {
          // Integer operands into a float64 result (double math) or a
          // date32 result (int32 truncation), as date arithmetic makes.
          out = Pick(2) == 0 ? TypeKind::kFloat64 : TypeKind::kDate32;
        }
        return Expression::Call(func, {std::move(l), std::move(r)}, out);
      }
      default: {
        Expression a = Numeric(depth - 1);
        const TypeKind out = a.type == TypeKind::kFloat64 ? TypeKind::kFloat64
                                                          : TypeKind::kInt64;
        return Expression::Call(ScalarFunc::kNegate, {std::move(a)}, out);
      }
    }
  }

  Expression String() {
    if (Pick(2) == 0) return Expression::FieldRef(kColS, TypeKind::kString);
    return Expression::Literal(DiffValue(TypeKind::kString, 0.08, rng_));
  }

  Expression Bool(int depth) {
    switch (depth <= 0 ? Pick(4) : Pick(10)) {
      case 0:
        return Expression::FieldRef(kColB, TypeKind::kBool);
      case 1:
        return Expression::Literal(DiffValue(TypeKind::kBool, 0.2, rng_));
      case 2:
      case 3:
      case 4: {
        const auto func = static_cast<ScalarFunc>(
            static_cast<int>(ScalarFunc::kEq) + Pick(6));
        if (Pick(4) == 0) {
          return Expression::Call(func, {String(), String()},
                                  TypeKind::kBool);
        }
        const int d = Pick(3) == 0 ? depth - 1 : 0;
        return Expression::Call(func, {Numeric(d), Numeric(0)},
                                TypeKind::kBool);
      }
      case 5:
      case 6: {
        // A range on one field, BETWEEN's desugaring, sometimes flipped.
        constexpr DiffCol kCols[] = {kColI32, kColD32, kColI64, kColF64,
                                     kColS};
        const DiffCol c = kCols[Pick(5)];
        auto bound = [&] {
          TypeKind type = kDiffTypes[c];
          if (c != kColS && Pick(3) == 0) {
            type = Pick(2) == 0 ? TypeKind::kFloat64 : TypeKind::kInt64;
          }
          return Expression::Literal(DiffValue(type, 0.05, rng_));
        };
        Expression field = Expression::FieldRef(c, kDiffTypes[c]);
        Expression ge = Expression::Call(ScalarFunc::kGe, {field, bound()},
                                         TypeKind::kBool);
        Expression le = Pick(4) == 0
                            ? Expression::Call(ScalarFunc::kGe,
                                               {bound(), field},
                                               TypeKind::kBool)
                            : Expression::Call(ScalarFunc::kLe,
                                               {field, bound()},
                                               TypeKind::kBool);
        return Expression::Call(ScalarFunc::kAnd,
                                {std::move(ge), std::move(le)},
                                TypeKind::kBool);
      }
      case 7:
        return Expression::Call(Pick(3) == 0 ? ScalarFunc::kOr
                                             : ScalarFunc::kAnd,
                                {Bool(depth - 1), Bool(depth - 1)},
                                TypeKind::kBool);
      case 8:
        return Expression::Call(ScalarFunc::kNot, {Bool(depth - 1)},
                                TypeKind::kBool);
      default: {
        Expression arg = Pick(3) == 0   ? String()
                         : Pick(2) == 0 ? Bool(depth - 1)
                                        : Numeric(depth - 1);
        return Expression::Call(ScalarFunc::kIsNull, {std::move(arg)},
                                TypeKind::kBool);
      }
    }
  }

 private:
  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng_);
  }

  std::mt19937_64* rng_;
};

bool RefIsInteger(TypeKind t) {
  return t == TypeKind::kInt32 || t == TypeKind::kInt64 ||
         t == TypeKind::kDate32;
}

Datum RefInteger(TypeKind type, int64_t v) {
  if (type == TypeKind::kInt64) return Datum::Int64(v);
  const auto narrow = static_cast<int32_t>(v);
  return type == TypeKind::kDate32 ? Datum::Date32(narrow)
                                   : Datum::Int32(narrow);
}

template <typename T>
bool RefCompare(ScalarFunc func, T a, T b) {
  switch (func) {
    case ScalarFunc::kEq: return a == b;
    case ScalarFunc::kNe: return a != b;
    case ScalarFunc::kLt: return a < b;
    case ScalarFunc::kLe: return a <= b;
    case ScalarFunc::kGt: return a > b;
    default: return a >= b;
  }
}

// The evaluator's semantics, one row at a time: null propagation, Kleene
// AND/OR, NOT(null) = null, IS NULL never null; integer math (wrapping,
// / 0 and INT64_MIN / -1 are NULL, % -1 is 0) when the result is not
// float64 and both operands are integers, double math otherwise (/ 0 is
// NULL); two integers compare as int64, anything with float64 as IEEE
// double.
Datum RefEval(const Expression& e, const RecordBatch& batch, size_t row) {
  if (e.kind == ExprKind::kFieldRef) {
    return batch.column(e.field_index)->GetDatum(row);
  }
  if (e.kind == ExprKind::kLiteral) return e.literal;
  const Datum a = RefEval(e.args[0], batch, row);
  switch (e.func) {
    case ScalarFunc::kIsNull:
      return Datum::Bool(a.is_null());
    case ScalarFunc::kNot:
      return a.is_null() ? Datum::Null(TypeKind::kBool)
                         : Datum::Bool(!a.bool_value());
    case ScalarFunc::kNegate:
      if (a.is_null()) return Datum::Null(e.type);
      if (e.type == TypeKind::kFloat64) return Datum::Float64(-a.AsDouble());
      return RefInteger(e.type, static_cast<int64_t>(
                                    0 - static_cast<uint64_t>(a.AsInt64())));
    default:
      break;
  }
  const Datum b = RefEval(e.args[1], batch, row);
  if (e.func == ScalarFunc::kAnd || e.func == ScalarFunc::kOr) {
    const bool is_and = e.func == ScalarFunc::kAnd;
    const bool decides = is_and ? false : true;
    if ((!a.is_null() && a.bool_value() == decides) ||
        (!b.is_null() && b.bool_value() == decides)) {
      return Datum::Bool(decides);
    }
    if (a.is_null() || b.is_null()) return Datum::Null(TypeKind::kBool);
    return Datum::Bool(!decides);
  }
  if (substrait::IsComparison(e.func)) {
    if (a.is_null() || b.is_null()) return Datum::Null(TypeKind::kBool);
    if (a.type() == TypeKind::kString) {
      return Datum::Bool(RefCompare<std::string_view>(
          e.func, a.string_value(), b.string_value()));
    }
    if (ComparesAsDouble(a.type(), b.type())) {
      return Datum::Bool(RefCompare(e.func, a.AsDouble(), b.AsDouble()));
    }
    return Datum::Bool(RefCompare(e.func, a.AsInt64(), b.AsInt64()));
  }
  if (a.is_null() || b.is_null()) return Datum::Null(e.type);
  if (e.type != TypeKind::kFloat64 && RefIsInteger(a.type()) &&
      RefIsInteger(b.type())) {
    const int64_t x = a.AsInt64();
    const int64_t y = b.AsInt64();
    const auto ux = static_cast<uint64_t>(x);
    const auto uy = static_cast<uint64_t>(y);
    switch (e.func) {
      case ScalarFunc::kAdd:
        return RefInteger(e.type, static_cast<int64_t>(ux + uy));
      case ScalarFunc::kSubtract:
        return RefInteger(e.type, static_cast<int64_t>(ux - uy));
      case ScalarFunc::kMultiply:
        return RefInteger(e.type, static_cast<int64_t>(ux * uy));
      case ScalarFunc::kDivide:
        if (y == 0 || (y == -1 && x == std::numeric_limits<int64_t>::min())) {
          return Datum::Null(e.type);
        }
        return RefInteger(e.type, x / y);
      default:
        if (y == 0) return Datum::Null(e.type);
        return RefInteger(e.type, y == -1 ? 0 : x % y);
    }
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  switch (e.func) {
    case ScalarFunc::kAdd: return Datum::Float64(x + y);
    case ScalarFunc::kSubtract: return Datum::Float64(x - y);
    case ScalarFunc::kMultiply: return Datum::Float64(x * y);
    case ScalarFunc::kDivide:
      return y == 0 ? Datum::Null(e.type) : Datum::Float64(x / y);
    default:
      return y == 0 ? Datum::Null(e.type) : Datum::Float64(std::fmod(x, y));
  }
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Cell `row` of `col` equals `want`; doubles bit for bit.
::testing::AssertionResult SameCell(const Column& col, size_t row,
                                    const Datum& want) {
  if (col.IsNull(row) != want.is_null()) {
    return ::testing::AssertionFailure()
           << "row " << row << ": null " << col.IsNull(row) << " vs "
           << want.ToString();
  }
  if (want.is_null()) return ::testing::AssertionSuccess();
  bool same = false;
  switch (col.type()) {
    case TypeKind::kBool: same = col.GetBool(row) == want.bool_value(); break;
    case TypeKind::kInt32:
    case TypeKind::kDate32: same = col.GetInt32(row) == want.AsInt64(); break;
    case TypeKind::kInt64: same = col.GetInt64(row) == want.int64_value(); break;
    case TypeKind::kFloat64:
      same = DoubleBits(col.GetFloat64(row)) ==
             DoubleBits(want.float64_value());
      break;
    case TypeKind::kString:
      same = col.GetString(row) == want.string_value();
      break;
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "row " << row << ": got "
                                       << col.GetDatum(row).ToString()
                                       << ", want " << want.ToString();
}

substrait::Rel FilterOver(const Expression& predicate) {
  substrait::Rel filter;
  filter.kind = substrait::RelKind::kFilter;
  filter.input = std::make_unique<substrait::Rel>();
  filter.input->kind = substrait::RelKind::kRead;
  filter.input->base_schema = DiffSchema();
  filter.predicate = predicate;
  return filter;
}

TEST(EvaluatorDifferentialTest, KernelsMatchRowAtATimeReference) {
  std::mt19937_64 rng(0xD1FF);
  ExprGen gen(&rng);
  constexpr int kCases = 2400;
  constexpr size_t kRows = 48;
  RecordBatchPtr batch;
  int predicates = 0;
  for (int c = 0; c < kCases; ++c) {
    if (c % 16 == 0) batch = DiffBatch(kRows, &rng);
    const int shape = static_cast<int>(rng() % 8);
    const Expression expr = shape < 5   ? gen.Bool(3)
                            : shape < 7 ? gen.Numeric(3)
                                        : gen.String();
    SCOPED_TRACE("case " + std::to_string(c) + ": " +
                 expr.ToString(batch->schema().get()));
    auto col = substrait::Evaluate(expr, *batch);
    ASSERT_TRUE(col.ok()) << col.status();
    ASSERT_EQ((*col)->type(), expr.type);
    ASSERT_EQ((*col)->length(), kRows);
    for (size_t r = 0; r < kRows; ++r) {
      ASSERT_TRUE(SameCell(**col, r, RefEval(expr, *batch, r)));
    }
    if (expr.type != TypeKind::kBool) continue;
    ++predicates;
    // Plan validation admits every generated predicate.
    ASSERT_TRUE(substrait::OutputSchema(FilterOver(expr)).ok());
    const SelectionVector partial = RandomSelection(kRows, 0.5, &rng);
    const SelectionVector empty;
    for (const SelectionVector* sel : {static_cast<const SelectionVector*>(
                                           nullptr),
                                       &partial, &empty}) {
      SelectionVector want;
      for (uint32_t r = 0; r < kRows; ++r) {
        if (sel != nullptr &&
            !std::binary_search(sel->begin(), sel->end(), r)) {
          continue;
        }
        const Datum v = RefEval(expr, *batch, r);
        if (!v.is_null() && v.bool_value()) want.push_back(r);
      }
      auto got = substrait::FilterSelection(expr, *batch, sel);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(*got, want);
    }
  }
  EXPECT_GT(predicates, kCases / 2);
}

// Per-row reference of HashAggregator: groups in first-appearance order
// (NULL keys equal each other, float keys equal when their bits are and
// they are not NaN, as hashing then == makes them), SUM/AVG accumulating
// doubles in row order with a wrapping integer SUM beside it, MIN/MAX by
// Datum::Compare.
struct RefAggregate {
  struct State {
    int64_t count = 0;
    double sum = 0;
    uint64_t isum = 0;
    Datum extreme;
  };
  std::vector<std::vector<Datum>> keys;
  std::vector<std::vector<State>> states;
};

// A grouping-key cell that may be new in batch `index`: small values
// shifted by the batch, and strings of 0-12 bytes (8 and 9 straddle the
// one-load string hash) whose last byte may name the batch.
Datum BatchKey(TypeKind type, int index, std::mt19937_64* rng) {
  const int v = std::uniform_int_distribution<int>(0, 3)(*rng) + 16 * index;
  switch (type) {
    case TypeKind::kBool: return Datum::Bool(v % 2 == 1);
    case TypeKind::kInt32: return Datum::Int32(v);
    case TypeKind::kDate32: return Datum::Date32(v);
    case TypeKind::kInt64: return Datum::Int64(v);
    case TypeKind::kFloat64: return Datum::Float64(v * 0.5);
    case TypeKind::kString: {
      std::string word = std::string("abcdefghijkl").substr(0, (*rng)() % 13);
      if (!word.empty() && (*rng)() % 2 == 0) {
        word.back() = static_cast<char>('A' + index);
      }
      return Datum::String(word);
    }
  }
  return Datum::Null(type);
}

// DiffBatch's cells plus the inputs batch-at-a-time grouping treats
// apart: BatchKey cells; runs of equal rows, as Laghos has 32 rows per
// vertex; and, in some batches, NaN float keys in the second half, after
// earlier rows created groups, which send the batch down the exact
// renumbering path. A built column's last string ends on its chars
// buffer's last byte.
RecordBatchPtr GroupingBatch(size_t rows, int index, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double repeat_prob = unit(*rng) < 0.3 ? 0.8 : 0.0;
  const bool late_nans = unit(*rng) < 0.3;
  std::vector<bool> repeat(rows);
  for (size_t r = 1; r < rows; ++r) repeat[r] = unit(*rng) < repeat_prob;
  std::vector<ColumnPtr> cols;
  for (TypeKind type : kDiffTypes) {
    const double null_prob = unit(*rng) < 0.5 ? 0.0 : 0.2;
    std::vector<Datum> cells;
    for (size_t r = 0; r < rows; ++r) {
      Datum v = DiffValue(type, null_prob, rng);
      if (!v.is_null() && unit(*rng) < 0.4) v = BatchKey(type, index, rng);
      if (late_nans && type == TypeKind::kFloat64 && 2 * r >= rows &&
          unit(*rng) < 0.3) {
        v = Datum::Float64(std::numeric_limits<double>::quiet_NaN());
      }
      cells.push_back(repeat[r] ? cells.back() : v);
    }
    auto col = MakeColumn(type);
    for (const Datum& cell : cells) col->AppendDatum(cell);
    cols.push_back(std::move(col));
  }
  return MakeBatch(DiffSchema(), std::move(cols));
}

bool RefKeyEqual(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == TypeKind::kFloat64) {
    return !std::isnan(a.float64_value()) &&
           DoubleBits(a.float64_value()) == DoubleBits(b.float64_value());
  }
  return a.Compare(b) == 0;
}

TEST(AggregatorDifferentialTest, MatchesPerRowReference) {
  std::mt19937_64 rng(0xA66);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  constexpr DiffCol kKeyCols[] = {kColB, kColI32, kColD32, kColI64, kColF64,
                                  kColS};
  constexpr DiffCol kNumeric[] = {kColI32, kColD32, kColI64, kColF64};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<int> keys;
    for (int k = pick(3); k > 0; --k) keys.push_back(kKeyCols[pick(6)]);
    std::vector<AggregateSpec> specs;
    for (int a = 1 + pick(4); a > 0; --a) {
      AggregateSpec spec;
      spec.func = static_cast<AggFunc>(pick(6));
      const bool numeric =
          spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg;
      const DiffCol c = numeric ? kNumeric[pick(4)] : kKeyCols[pick(6)];
      spec.argument = Expression::FieldRef(c, kDiffTypes[c]);
      spec.output_name = "a" + std::to_string(specs.size());
      specs.push_back(std::move(spec));
    }
    exec::HashAggregator agg(DiffSchema(), keys, specs);
    RefAggregate ref;
    const int batches = pick(4);
    for (int b = 0; b < batches; ++b) {
      RecordBatchPtr batch = GroupingBatch(40, b, &rng);
      const int shape = pick(3);
      const SelectionVector sel =
          RandomSelection(40, shape == 0 ? 0.0 : 0.6, &rng);
      ASSERT_TRUE(agg.Consume(*batch, shape == 2 ? nullptr : &sel).ok());
      for (uint32_t row = 0; row < 40; ++row) {
        if (shape != 2 && !std::binary_search(sel.begin(), sel.end(), row)) {
          continue;
        }
        std::vector<Datum> key;
        for (int k : keys) key.push_back(batch->column(k)->GetDatum(row));
        size_t g = 0;
        while (g < ref.keys.size()) {
          bool equal = true;
          for (size_t k = 0; k < key.size(); ++k) {
            equal = equal && RefKeyEqual(ref.keys[g][k], key[k]);
          }
          if (equal) break;
          ++g;
        }
        if (g == ref.keys.size()) {
          ref.keys.push_back(key);
          ref.states.emplace_back(specs.size());
        }
        for (size_t a = 0; a < specs.size(); ++a) {
          RefAggregate::State& st = ref.states[g][a];
          if (specs[a].func == AggFunc::kCountStar) {
            ++st.count;
            continue;
          }
          const Datum v = batch->column(specs[a].argument.field_index)
                              ->GetDatum(row);
          if (v.is_null()) continue;
          ++st.count;
          const AggFunc func = specs[a].func;
          if (func == AggFunc::kSum || func == AggFunc::kAvg) {
            st.sum += v.AsDouble();
            st.isum += static_cast<uint64_t>(v.AsInt64());
          } else if (func == AggFunc::kMin || func == AggFunc::kMax) {
            const int sign = func == AggFunc::kMin ? -1 : 1;
            if (st.extreme.is_null() || v.Compare(st.extreme) * sign > 0) {
              st.extreme = v;
            }
          }
        }
      }
    }
    if (keys.empty() && ref.keys.empty()) {
      ref.keys.emplace_back();
      ref.states.emplace_back(specs.size());
    }
    auto out = agg.Finish();
    ASSERT_TRUE(out.ok()) << out.status();
    const RecordBatch& got = **out;
    ASSERT_EQ(got.num_rows(), ref.keys.size());
    for (size_t g = 0; g < ref.keys.size(); ++g) {
      for (size_t k = 0; k < keys.size(); ++k) {
        ASSERT_TRUE(SameCell(*got.column(k), g, ref.keys[g][k]));
      }
      for (size_t a = 0; a < specs.size(); ++a) {
        const RefAggregate::State& st = ref.states[g][a];
        const TypeKind type = specs[a].OutputType();
        Datum want;
        switch (specs[a].func) {
          case AggFunc::kCount:
          case AggFunc::kCountStar:
            want = Datum::Int64(st.count);
            break;
          case AggFunc::kSum:
            want = st.count == 0 ? Datum::Null(type)
                   : type == TypeKind::kInt64
                       ? Datum::Int64(static_cast<int64_t>(st.isum))
                       : Datum::Float64(st.sum);
            break;
          case AggFunc::kAvg:
            want = st.count == 0
                       ? Datum::Null(type)
                       : Datum::Float64(st.sum / static_cast<double>(st.count));
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            want = st.extreme.is_null() ? Datum::Null(type) : st.extreme;
            break;
        }
        ASSERT_TRUE(SameCell(*got.column(keys.size() + a), g, want))
            << substrait::AggFuncName(specs[a].func) << " group " << g;
      }
    }
  }
}

// ---- grouping under a selection -------------------------------------------

// The selections a filter hands the aggregator: none, one row, one run,
// a sparse pick and every row.
std::vector<SelectionVector> SelectionShapes(size_t n, std::mt19937_64* rng) {
  SelectionVector all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  const size_t begin = (*rng)() % n;
  return {{},
          {static_cast<uint32_t>((*rng)() % n)},
          SelectionVector(all.begin() + begin,
                          all.begin() + begin + 1 + (*rng)() % (n - begin)),
          RandomSelection(n, 0.05, rng),
          all};
}

TEST(HashRowsTest, SelectedRowsHashAsTheirRows) {
  std::mt19937_64 rng(0x5E1);
  const size_t n = 300;
  const std::vector<ColumnPtr> keys = {
      RandomColumn(TypeKind::kInt64, n, 0.2, &rng), RandomStrings(n, 0.2, &rng),
      RandomColumn(TypeKind::kFloat64, n, 0.1, &rng)};
  std::vector<uint64_t> whole;
  HashRows(keys, &whole);
  for (const SelectionVector& sel : SelectionShapes(n, &rng)) {
    std::vector<uint64_t> live;
    HashRows(keys, &live, &sel);
    ASSERT_EQ(live.size(), sel.size());
    for (size_t j = 0; j < sel.size(); ++j) {
      EXPECT_EQ(live[j], whole[sel[j]]) << "row " << sel[j];
    }
  }
}

// Consume(batch, &sel) groups exactly as Consume(TakeBatch(batch, sel)):
// the same groups in the same order with bit-identical results, over
// int64, float (NaN keys take the exact renumbering path, -0.0 and 0.0
// group apart) and string keys.
TEST(HashAggregatorSelectionTest, SelectedRowsGroupAsTheirCompaction) {
  std::mt19937_64 rng(0x6A7);
  const auto schema = MakeSchema({{"k", TypeKind::kInt64},
                                  {"f", TypeKind::kFloat64},
                                  {"s", TypeKind::kString},
                                  {"v", TypeKind::kFloat64}});
  const double floats[] = {0.5, -0.0, 0.0, std::nan(""), 2.25, 1e300};
  const char* strings[] = {"", "a", "abcdefghij", "abcdefghijklmnopqrstu"};
  auto make_batch = [&](size_t n) {
    auto k = MakeColumn(TypeKind::kInt64);
    auto f = MakeColumn(TypeKind::kFloat64);
    auto str = MakeColumn(TypeKind::kString);
    auto v = MakeColumn(TypeKind::kFloat64);
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 10 == 0) {
        k->AppendNull();
      } else {
        k->AppendInt64(static_cast<int64_t>(rng() % 5) - 2);
      }
      f->AppendFloat64(floats[rng() % 6]);
      if (rng() % 10 == 0) {
        str->AppendNull();
      } else {
        str->AppendString(strings[rng() % 4]);
      }
      v->AppendFloat64(static_cast<double>(rng() % 1000) * 0.125 - 7.0);
    }
    return MakeBatch(schema, {k, f, str, v});
  };
  std::vector<AggregateSpec> specs(4);
  specs[0].func = AggFunc::kCountStar;
  specs[1].func = AggFunc::kSum;
  specs[1].argument = Expression::FieldRef(3, TypeKind::kFloat64);
  specs[2].func = AggFunc::kMin;
  specs[2].argument = Expression::FieldRef(2, TypeKind::kString);
  specs[3].func = AggFunc::kAvg;
  specs[3].argument = Expression::FieldRef(1, TypeKind::kFloat64);
  for (size_t a = 0; a < specs.size(); ++a) {
    specs[a].output_name = "a" + std::to_string(a);
  }
  const std::vector<std::vector<int>> key_sets = {{0}, {1}, {2}, {0, 1, 2}};
  for (const std::vector<int>& keys : key_sets) {
    for (int trial = 0; trial < 5; ++trial) {
      exec::HashAggregator selected(schema, keys, specs);
      exec::HashAggregator compacted(schema, keys, specs);
      for (int b = 0; b < 3; ++b) {
        const RecordBatchPtr batch = make_batch(200);
        const std::vector<SelectionVector> shapes = SelectionShapes(200, &rng);
        const SelectionVector& sel = shapes[(trial + b) % shapes.size()];
        ASSERT_TRUE(selected.Consume(*batch, &sel).ok());
        ASSERT_TRUE(compacted.Consume(*TakeBatch(*batch, sel)).ok());
      }
      auto got = selected.Finish();
      auto want = compacted.Finish();
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(ipc::SerializeBatch(**got), ipc::SerializeBatch(**want))
          << "keys " << keys.size() << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace pocs::columnar
