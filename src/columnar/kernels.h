// Vectorized compute kernels over columns: scalar comparisons producing
// selection vectors, gather (Take), multi-key sort indices, and row
// hashing for hash aggregation. These are the primitives both the engine
// operators and the OCS embedded engine are built on.
//
// Kernel contracts (DESIGN.md §15):
//   * Inner loops run over contiguous typed spans (Column::i64_data()
//     et al.) with no per-row virtual dispatch; the comparison op is a
//     compile-time template parameter so the hot loop is branch-light
//     and autovectorization-friendly. The same code is the scalar
//     fallback — there are no intrinsics, only loops the compiler can
//     lower to SIMD where the target allows.
//   * Selection vectors are ascending, duplicate-free row indices into
//     the batch they were computed from. Passing `input` restricts a
//     kernel to those rows and the output is always a subset of it.
//   * Null values never match a comparison, and a NULL literal matches
//     nothing (SQL semantics).
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "columnar/batch.h"
#include "columnar/column.h"

namespace pocs::columnar {

enum class CompareOp : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

std::string_view CompareOpName(CompareOp op);
// The op that holds for (b, a) exactly when `op` holds for (a, b):
// `lit < x` is `x > lit`.
CompareOp MirrorCompareOp(CompareOp op);

// `a <op> b` with the op fixed at compile time, so a loop over it is one
// branch-free compare per element. Doubles follow IEEE: NaN satisfies
// only `<>`.
template <CompareOp Op, typename T>
inline bool CompareHolds(const T& a, const T& b) {
  if constexpr (Op == CompareOp::kEq) return a == b;
  if constexpr (Op == CompareOp::kNe) return a != b;
  if constexpr (Op == CompareOp::kLt) return a < b;
  if constexpr (Op == CompareOp::kLe) return a <= b;
  if constexpr (Op == CompareOp::kGt) return a > b;
  if constexpr (Op == CompareOp::kGe) return a >= b;
  return false;
}

// Calls f(std::integral_constant<CompareOp, op>{}): turns a runtime op
// into the compile-time parameter of CompareHolds.
template <typename F>
decltype(auto) WithCompareOp(CompareOp op, F&& f) {
  switch (op) {
    case CompareOp::kEq:
      return f(std::integral_constant<CompareOp, CompareOp::kEq>{});
    case CompareOp::kNe:
      return f(std::integral_constant<CompareOp, CompareOp::kNe>{});
    case CompareOp::kLt:
      return f(std::integral_constant<CompareOp, CompareOp::kLt>{});
    case CompareOp::kLe:
      return f(std::integral_constant<CompareOp, CompareOp::kLe>{});
    case CompareOp::kGt:
      return f(std::integral_constant<CompareOp, CompareOp::kGt>{});
    case CompareOp::kGe:
      break;
  }
  return f(std::integral_constant<CompareOp, CompareOp::kGe>{});
}

// Typed read view of a column's value buffer, widened to T on load, and a
// scalar broadcast to every row. Kernels template their inner loops on
// these element views, so one loop body serves every operand shape.
template <typename T, typename V>
struct ValueSpan {
  const V* values;
  T operator[](size_t i) const { return static_cast<T>(values[i]); }
};

template <typename T>
struct Splat {
  T value;
  T operator[](size_t) const { return value; }
};

struct StringSpan {
  const int32_t* offsets;
  const char* chars;
  explicit StringSpan(const Column& col)
      : offsets(col.offsets().data()), chars(col.chars().data()) {}
  std::string_view operator[](size_t i) const {
    return {chars + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i])};
  }
};

// Integer arithmetic that wraps in two's complement instead of
// overflowing into undefined behaviour.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t WrapNeg(int64_t a) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
}

using SelectionVector = std::vector<uint32_t>;

// Rows of `col` (restricted to `input` if non-null) where
// `col[i] <op> literal` holds. Null values never match. Numeric values
// compare under ComparesAsDouble's rule (columnar/types.h), so an integer
// column against 2.5 compares as double.
SelectionVector CompareScalar(const Column& col, CompareOp op,
                              const Datum& literal,
                              const SelectionVector* input = nullptr);

// Rows where lo <= col[i] <= hi (BETWEEN), each bound compared under the
// same rule as CompareScalar. Fused single pass when both bounds compare
// in the same domain: both tested in one traversal, no intermediate
// selection.
SelectionVector Between(const Column& col, const Datum& lo, const Datum& hi,
                        const SelectionVector* input = nullptr);

// Gather: out[j] = col[sel[j]], for any list of rows — a selection, a
// sort permutation, a join's repeated build rows. One gather kernel
// copies every buffer:
//   * Fixed-width values and validity bytes move element by element;
//     a list that is one contiguous run is one memcpy.
//   * String offsets are rebased to start at 0. A string of up to 16
//     bytes moves as one fixed 16-byte copy when those 16 bytes lie inside
//     the source chars view (col.chars(), not merely its owner) and inside
//     the output; a longer string, or one at either buffer's tail, takes
//     an exact memcpy.
// A gather that selects no NULL has no validity buffer, as a column built
// without NULLs has none.
std::shared_ptr<Column> Take(const Column& col, const SelectionVector& sel);
RecordBatchPtr TakeBatch(const RecordBatch& batch, const SelectionVector& sel);

// Row-wise hash of the given key columns for hash grouping. out has one
// entry per live row: row sel[j] at j, or every row of the batch when
// `sel` is null. One typed pass per key column mixes each cell into its
// row's running hash once: integers and bools by value, floats by their
// bits (so -0.0 and 0.0 hash apart), a NULL as a fixed word, a string of
// up to 8 bytes from one masked load of its own bytes and its length, a
// longer one by HashBytes. Equal keys hash equal whatever surrounds them
// in their buffers. Unlike the pinned functions in common/hash.h, these
// values stay in-process: nothing stores or ships them, so the function
// may change.
void HashRows(const std::vector<ColumnPtr>& keys, std::vector<uint64_t>* out,
              const SelectionVector* sel = nullptr);

// True iff rows a and b are equal on every key column (null == null).
bool RowsEqual(const std::vector<ColumnPtr>& keys, size_t a, size_t b);
// Cross-column-set variant: keys_a[.] row a vs keys_b[.] row b.
bool RowsEqual(const std::vector<ColumnPtr>& keys_a, size_t a,
               const std::vector<ColumnPtr>& keys_b, size_t b);

struct SortKey {
  int column;       // index into the batch
  bool ascending = true;
  bool nulls_first = true;
};

// Stable sort permutation of batch rows by the given keys. NULLs go first
// or last by `nulls_first` in either direction; a float NaN sorts after
// every number, so first when descending, as in Presto.
std::vector<uint32_t> SortIndices(const RecordBatch& batch,
                                  const std::vector<SortKey>& keys);

}  // namespace pocs::columnar
