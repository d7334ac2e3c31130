// Vectorized evaluation of IR expressions over record batches. Shared by
// the OCS embedded engine (storage-side execution) and the compute
// engine's filter/project operators, guaranteeing both sides agree on
// expression semantics (null propagation, numeric promotion, Kleene
// logic) — the property the paper relies on when splitting a plan
// between storage and compute.
#pragma once

#include "columnar/batch.h"
#include "columnar/kernels.h"
#include "substrait/expr.h"

namespace pocs::substrait {

// The CompareOp of a comparison function (IsComparison(func)).
columnar::CompareOp ToCompareOp(ScalarFunc func);

// Evaluate `expr` against every row of `input`; the result column has
// expr.type and input.num_rows() entries.
//
// Semantics: arithmetic and comparisons propagate nulls (any null operand
// -> null result); integer arithmetic wraps in two's complement, and
// division/modulo by zero -> null, as does INT64_MIN / -1 (x % -1 is 0);
// two integer operands compare as int64 and anything involving float64
// as double (IEEE: NaN satisfies only <>); AND/OR use three-valued Kleene
// logic; NOT(null) = null; IS NULL is never null. Operand types must be
// ones CheckCallTypes admits, else InvalidArgument.
//
// Every call runs one typed-span kernel over the batch (DESIGN.md §15). A
// literal, or a subtree made only of literals, folds once per call into a
// scalar operand instead of becoming a column.
Result<columnar::ColumnPtr> Evaluate(const Expression& expr,
                                     const columnar::RecordBatch& input);

// Evaluate a boolean predicate and keep the rows where it is TRUE
// (null and false rows are dropped, SQL WHERE semantics).
Result<columnar::RecordBatchPtr> FilterBatch(
    const Expression& predicate, const columnar::RecordBatch& input);

// Rows of `input` where `predicate` is TRUE, as a selection vector.
Result<columnar::SelectionVector> FilterSelection(
    const Expression& predicate, const columnar::RecordBatch& input);

// Selection-aware variant: the result is the subset of `input_sel`
// (every row of the batch when null) where `predicate` is TRUE. The
// conjuncts of the predicate's AND spine narrow the selection in turn: a
// field–literal comparison runs columnar::CompareScalar (a `>=`/`<=` pair
// on one field, columnar::Between) over only the rows still selected;
// any other conjunct (OR, NOT, IS NULL, column–column comparison) is
// evaluated into a mask over the batch and intersected. Rows outside
// `input_sel` never appear in the output, so batches carrying
// unmaterialized placeholder rows (DESIGN.md §15) stay correct.
Result<columnar::SelectionVector> FilterSelection(
    const Expression& predicate, const columnar::RecordBatch& input,
    const columnar::SelectionVector* input_sel);

}  // namespace pocs::substrait
