#include "substrait/eval.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>

#include "columnar/kernels.h"
#include "common/check.h"

namespace pocs::substrait {

using columnar::Column;
using columnar::ColumnPtr;
using columnar::CompareOp;
using columnar::Datum;
using columnar::MakeColumn;
using columnar::RecordBatch;
using columnar::RecordBatchPtr;
using columnar::SelectionVector;
using columnar::Splat;
using columnar::TypeKind;
using columnar::ValueSpan;
using columnar::WrapAdd;
using columnar::WrapMul;
using columnar::WrapNeg;
using columnar::WrapSub;

namespace {

// ---- operands ---------------------------------------------------------------

// An evaluated operand: a column, or a scalar that a literal, or a subtree
// made only of literals, folded into once per call.
struct Operand {
  ColumnPtr column;  // null for a scalar
  Datum scalar;      // a scalar's value (may be NULL)

  bool is_scalar() const { return column == nullptr; }
  TypeKind type() const { return column ? column->type() : scalar.type(); }
  bool null_scalar() const { return column == nullptr && scalar.is_null(); }
  bool may_be_null() const {
    return column ? column->has_nulls() : scalar.is_null();
  }
  // Validity bytes of a column that has nulls; nullptr otherwise.
  const uint8_t* validity() const {
    return column && column->has_nulls() ? column->validity().data()
                                         : nullptr;
  }
};

bool IsInteger(TypeKind t) {
  return t == TypeKind::kInt32 || t == TypeKind::kInt64 ||
         t == TypeKind::kDate32;
}

// Calls f with a view of a numeric operand read as T (int64_t or double):
// a ValueSpan over a column, a Splat of a non-NULL scalar. Binary kernels
// nest two visits, instantiating their loop once per operand shape.
template <typename T, typename F>
void VisitNumeric(const Operand& op, F&& f) {
  if (op.is_scalar()) {
    if constexpr (std::is_same_v<T, double>) {
      f(Splat<T>{op.scalar.AsDouble()});
    } else {
      f(Splat<T>{op.scalar.AsInt64()});
    }
    return;
  }
  const Column& c = *op.column;
  switch (c.type()) {
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      f(ValueSpan<T, int32_t>{c.i32_data().data()});
      return;
    case TypeKind::kInt64:
      f(ValueSpan<T, int64_t>{c.i64_data().data()});
      return;
    case TypeKind::kFloat64:
      // CheckCallTypes never sends a float64 operand to integer math.
      if constexpr (std::is_same_v<T, double>) {
        f(ValueSpan<T, double>{c.f64_data().data()});
      }
      return;
    case TypeKind::kBool:
    case TypeKind::kString:
      return;  // rejected by CheckCallTypes
  }
}

template <typename F>
void VisitString(const Operand& op, F&& f) {
  if (op.is_scalar()) {
    f(Splat<std::string_view>{op.scalar.string_value()});
  } else {
    f(columnar::StringSpan(*op.column));
  }
}

// Calls f(values, validity) for a boolean operand; a NULL scalar reads as
// value 0 with validity 0, a column without nulls as validity 1.
template <typename F>
void VisitBool(const Operand& op, F&& f) {
  if (op.is_scalar()) {
    const bool null = op.scalar.is_null();
    f(Splat<uint8_t>{static_cast<uint8_t>(!null && op.scalar.bool_value())},
      Splat<uint8_t>{static_cast<uint8_t>(!null)});
    return;
  }
  const ValueSpan<uint8_t, uint8_t> values{op.column->bool_data().data()};
  if (op.column->has_nulls()) {
    f(values, ValueSpan<uint8_t, uint8_t>{op.column->validity().data()});
  } else {
    f(values, Splat<uint8_t>{1});
  }
}

// ---- validity and result columns -------------------------------------------

// Validity bytes (0/1) of one operand: empty when it has no nulls.
std::vector<uint8_t> ValidityOf(const Operand& op, size_t n) {
  std::vector<uint8_t> out;
  if (op.null_scalar()) {
    out.assign(n, 0);
  } else if (const uint8_t* v = op.validity()) {
    out.resize(n);
    for (size_t i = 0; i < n; ++i) out[i] = v[i] != 0;
  }
  return out;
}

// Validity of an elementwise result, combined from the operands' validity
// bytes outside any value loop: empty when neither operand has nulls.
std::vector<uint8_t> CombineValidity(const Operand& l, const Operand& r,
                                     size_t n) {
  std::vector<uint8_t> out = ValidityOf(l, n);
  if (r.null_scalar()) {
    out.assign(n, 0);
  } else if (const uint8_t* v = r.validity()) {
    if (out.empty()) {
      out.resize(n);
      for (size_t i = 0; i < n; ++i) out[i] = v[i] != 0;
    } else {
      for (size_t i = 0; i < n; ++i) out[i] &= v[i] != 0;
    }
  }
  return out;
}

// Moves computed values into a column of `type`. Null slots are zeroed, as
// Column::AppendNull leaves them, and the validity bytes are dropped when
// no row is null.
template <typename T>
ColumnPtr Finish(TypeKind type, std::vector<T> values,
                 std::vector<uint8_t> valid) {
  const size_t n = values.size();
  size_t null_count = 0;
  if (!valid.empty()) {
    size_t ones = 0;
    for (size_t i = 0; i < n; ++i) {
      values[i] = valid[i] != 0 ? values[i] : T{};
      ones += valid[i];
    }
    null_count = n - ones;
    if (null_count == 0) valid.clear();
  }
  return std::make_shared<Column>(type, n, null_count,
                                  Buffer::Adopt(std::move(valid)),
                                  Buffer::Adopt(std::move(values)));
}

// An int64 result stored as `type`: int64 as is, int32/date32 truncated.
ColumnPtr FinishInteger(TypeKind type, std::vector<int64_t> values,
                        std::vector<uint8_t> valid) {
  if (type == TypeKind::kInt64) {
    return Finish(type, std::move(values), std::move(valid));
  }
  std::vector<int32_t> narrow(values.size());
  for (size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = static_cast<int32_t>(values[i]);
  }
  return Finish(type, std::move(narrow), std::move(valid));
}

// `value` repeated n times, by typed fill: the column a scalar becomes when
// a whole expression folds to one.
ColumnPtr Broadcast(const Datum& value, size_t n) {
  const bool null = value.is_null();
  const TypeKind type = value.type();
  Buffer values;
  Buffer chars;
  switch (type) {
    case TypeKind::kBool:
      values = Buffer::Adopt(
          std::vector<uint8_t>(n, null ? 0 : value.bool_value()));
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      values = Buffer::Adopt(
          std::vector<int32_t>(n, null ? 0 : value.int32_value()));
      break;
    case TypeKind::kInt64:
      values = Buffer::Adopt(
          std::vector<int64_t>(n, null ? 0 : value.int64_value()));
      break;
    case TypeKind::kFloat64:
      values = Buffer::Adopt(
          std::vector<double>(n, null ? 0.0 : value.float64_value()));
      break;
    case TypeKind::kString: {
      const std::string_view s =
          null ? std::string_view() : std::string_view(value.string_value());
      std::vector<int32_t> offsets(n + 1);
      for (size_t i = 0; i <= n; ++i) {
        offsets[i] = static_cast<int32_t>(i * s.size());
      }
      std::string repeated;
      repeated.reserve(n * s.size());
      for (size_t i = 0; i < n; ++i) repeated.append(s);
      values = Buffer::Adopt(std::move(offsets));
      chars = Buffer::Adopt(std::move(repeated));
      break;
    }
  }
  return std::make_shared<Column>(
      type, n, null ? n : 0,
      Buffer::Adopt(null ? std::vector<uint8_t>(n, 0) : std::vector<uint8_t>()),
      std::move(values), std::move(chars));
}

// ---- arithmetic ---------------------------------------------------------------

// Integer arithmetic wraps in two's complement.
template <ScalarFunc F, typename T>
inline T ApplyArithmetic(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    if constexpr (F == ScalarFunc::kAdd) return WrapAdd(a, b);
    if constexpr (F == ScalarFunc::kSubtract) return WrapSub(a, b);
    return WrapMul(a, b);
  } else {
    if constexpr (F == ScalarFunc::kAdd) return a + b;
    if constexpr (F == ScalarFunc::kSubtract) return a - b;
    return a * b;
  }
}

template <ScalarFunc F, typename T, typename L, typename R>
void ArithmeticLoop(L l, R r, size_t n, T* out) {
  for (size_t i = 0; i < n; ++i) out[i] = ApplyArithmetic<F, T>(l[i], r[i]);
}

// Division and modulo. A zero divisor gives NULL (SQL engines raise; this
// evaluator degrades), and so does the one overflowing quotient
// INT64_MIN / -1; x % -1 is 0. `valid` holds the operands' combined
// validity on entry and loses every row whose divisor is rejected.
template <ScalarFunc F, typename T, typename L, typename R>
void DivideLoop(L l, R r, size_t n, T* out, uint8_t* valid) {
  for (size_t i = 0; i < n; ++i) {
    const T a = l[i];
    const T b = r[i];
    bool ok = b != 0;
    T v = 0;
    if constexpr (std::is_integral_v<T>) {
      if constexpr (F == ScalarFunc::kDivide) {
        ok = ok && !(b == -1 && a == std::numeric_limits<T>::min());
        if (ok) v = a / b;
      } else if (ok) {
        v = b == -1 ? 0 : a % b;
      }
    } else if (ok) {
      v = F == ScalarFunc::kDivide ? a / b : std::fmod(a, b);
    }
    out[i] = v;
    valid[i] &= static_cast<uint8_t>(ok);
  }
}

template <ScalarFunc F, typename T>
void RunArithmetic(const Operand& l, const Operand& r, size_t n, T* out,
                   uint8_t* valid) {
  VisitNumeric<T>(l, [&](auto lv) {
    VisitNumeric<T>(r, [&](auto rv) {
      if constexpr (F == ScalarFunc::kDivide || F == ScalarFunc::kModulo) {
        DivideLoop<F, T>(lv, rv, n, out, valid);
      } else {
        ArithmeticLoop<F, T>(lv, rv, n, out);
      }
    });
  });
}

template <typename T>
void DispatchArithmetic(ScalarFunc func, const Operand& l, const Operand& r,
                        size_t n, T* out, uint8_t* valid) {
  switch (func) {
    case ScalarFunc::kAdd:
      return RunArithmetic<ScalarFunc::kAdd>(l, r, n, out, valid);
    case ScalarFunc::kSubtract:
      return RunArithmetic<ScalarFunc::kSubtract>(l, r, n, out, valid);
    case ScalarFunc::kMultiply:
      return RunArithmetic<ScalarFunc::kMultiply>(l, r, n, out, valid);
    case ScalarFunc::kDivide:
      return RunArithmetic<ScalarFunc::kDivide>(l, r, n, out, valid);
    default:
      return RunArithmetic<ScalarFunc::kModulo>(l, r, n, out, valid);
  }
}

// Integer math when the result is not float64 and both operands are
// integers; double math otherwise.
ColumnPtr Arithmetic(const Expression& expr, const Operand& l,
                     const Operand& r, size_t n) {
  if (l.null_scalar() || r.null_scalar()) {
    return Broadcast(Datum::Null(expr.type), n);
  }
  std::vector<uint8_t> valid = CombineValidity(l, r, n);
  if ((expr.func == ScalarFunc::kDivide || expr.func == ScalarFunc::kModulo) &&
      valid.empty()) {
    valid.assign(n, 1);
  }
  if (expr.type == TypeKind::kFloat64 || !IsInteger(l.type()) ||
      !IsInteger(r.type())) {
    std::vector<double> out(n);
    DispatchArithmetic<double>(expr.func, l, r, n, out.data(), valid.data());
    return Finish(TypeKind::kFloat64, std::move(out), std::move(valid));
  }
  std::vector<int64_t> out(n);
  DispatchArithmetic<int64_t>(expr.func, l, r, n, out.data(), valid.data());
  return FinishInteger(expr.type, std::move(out), std::move(valid));
}

// ---- comparison ---------------------------------------------------------------

template <CompareOp Op, typename L, typename R>
void CompareLoop(L l, R r, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = columnar::CompareHolds<Op>(l[i], r[i]);
  }
}

// Strings compare bytewise; numerics under ComparesAsDouble's rule.
ColumnPtr Comparison(ScalarFunc func, const Operand& l, const Operand& r,
                     size_t n) {
  if (l.null_scalar() || r.null_scalar()) {
    return Broadcast(Datum::Null(TypeKind::kBool), n);
  }
  std::vector<uint8_t> out(n);
  columnar::WithCompareOp(ToCompareOp(func), [&](auto opc) {
    constexpr CompareOp kOp = decltype(opc)::value;
    auto loop = [&](auto lv, auto rv) {
      CompareLoop<kOp>(lv, rv, n, out.data());
    };
    if (l.type() == TypeKind::kString) {
      VisitString(l, [&](auto lv) {
        VisitString(r, [&](auto rv) { loop(lv, rv); });
      });
    } else if (columnar::ComparesAsDouble(l.type(), r.type())) {
      VisitNumeric<double>(l, [&](auto lv) {
        VisitNumeric<double>(r, [&](auto rv) { loop(lv, rv); });
      });
    } else {
      VisitNumeric<int64_t>(l, [&](auto lv) {
        VisitNumeric<int64_t>(r, [&](auto rv) { loop(lv, rv); });
      });
    }
  });
  return Finish(TypeKind::kBool, std::move(out), CombineValidity(l, r, n));
}

// ---- logic --------------------------------------------------------------------

// Kleene AND/OR over nullable booleans: a FALSE (AND) or TRUE (OR)
// operand decides the row even when the other one is NULL.
template <bool kAnd, typename LV, typename LM, typename RV, typename RM>
void KleeneLoop(LV lv, LM lm, RV rv, RM rm, size_t n, uint8_t* out,
                uint8_t* valid) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t lk = lm[i] != 0;
    const uint8_t rk = rm[i] != 0;
    const uint8_t lt = lk & (lv[i] != 0);
    const uint8_t rt = rk & (rv[i] != 0);
    const uint8_t lf = lk & (lv[i] == 0);
    const uint8_t rf = rk & (rv[i] == 0);
    if constexpr (kAnd) {
      out[i] = lt & rt;
      valid[i] = lf | rf | (lt & rt);
    } else {
      out[i] = lt | rt;
      valid[i] = lt | rt | (lf & rf);
    }
  }
}

ColumnPtr Logical(bool is_and, const Operand& l, const Operand& r,
                  size_t n) {
  std::vector<uint8_t> out(n);
  std::vector<uint8_t> valid;
  if (!l.may_be_null() && !r.may_be_null()) {
    VisitBool(l, [&](auto lv, auto) {
      VisitBool(r, [&](auto rv, auto) {
        if (is_and) {
          for (size_t i = 0; i < n; ++i) out[i] = (lv[i] != 0) & (rv[i] != 0);
        } else {
          for (size_t i = 0; i < n; ++i) out[i] = (lv[i] != 0) | (rv[i] != 0);
        }
      });
    });
  } else {
    valid.resize(n);
    VisitBool(l, [&](auto lv, auto lm) {
      VisitBool(r, [&](auto rv, auto rm) {
        if (is_and) {
          KleeneLoop<true>(lv, lm, rv, rm, n, out.data(), valid.data());
        } else {
          KleeneLoop<false>(lv, lm, rv, rm, n, out.data(), valid.data());
        }
      });
    });
  }
  return Finish(TypeKind::kBool, std::move(out), std::move(valid));
}

// ---- unary functions ----------------------------------------------------------

ColumnPtr Unary(const Expression& expr, const Operand& arg, size_t n) {
  switch (expr.func) {
    case ScalarFunc::kIsNull: {
      // Never null-propagating: IS NULL maps null→true, value→false.
      std::vector<uint8_t> out = ValidityOf(arg, n);
      if (out.empty()) {
        out.assign(n, 0);
      } else {
        for (size_t i = 0; i < n; ++i) out[i] ^= 1;
      }
      return Finish(TypeKind::kBool, std::move(out), {});
    }
    case ScalarFunc::kNot: {
      std::vector<uint8_t> out(n);
      VisitBool(arg, [&](auto v, auto) {
        for (size_t i = 0; i < n; ++i) out[i] = v[i] == 0;
      });
      return Finish(TypeKind::kBool, std::move(out), ValidityOf(arg, n));
    }
    default:
      break;  // negate
  }
  if (arg.null_scalar()) return Broadcast(Datum::Null(expr.type), n);
  std::vector<uint8_t> valid = ValidityOf(arg, n);
  if (expr.type == TypeKind::kFloat64) {
    std::vector<double> out(n);
    VisitNumeric<double>(arg, [&](auto v) {
      for (size_t i = 0; i < n; ++i) out[i] = -v[i];
    });
    return Finish(TypeKind::kFloat64, std::move(out), std::move(valid));
  }
  std::vector<int64_t> out(n);
  VisitNumeric<int64_t>(arg, [&](auto v) {
    for (size_t i = 0; i < n; ++i) out[i] = WrapNeg(v[i]);
  });
  return FinishInteger(expr.type, std::move(out), std::move(valid));
}

// ---- expression trees ---------------------------------------------------------

Result<Operand> EvalOperand(const Expression& expr, const RecordBatch& input);

Result<Operand> EvalCall(const Expression& expr, const RecordBatch& input) {
  const bool unary = IsUnary(expr.func);
  if (expr.args.size() != (unary ? 1u : 2u)) {
    return Status::InvalidArgument(unary ? "eval: unary arity"
                                         : "eval: binary arity");
  }
  POCS_ASSIGN_OR_RETURN(Operand l, EvalOperand(expr.args[0], input));
  Operand r;
  if (!unary) {
    POCS_ASSIGN_OR_RETURN(r, EvalOperand(expr.args[1], input));
  }
  POCS_RETURN_NOT_OK(CheckCallTypes(expr.func, expr.type, l.type(),
                                    unary ? l.type() : r.type()));
  // Scalar operands only: the kernel runs once, over a single row.
  const bool fold = l.is_scalar() && (unary || r.is_scalar());
  const size_t n = fold ? 1 : input.num_rows();
  ColumnPtr out;
  if (unary) {
    out = Unary(expr, l, n);
  } else if (IsArithmetic(expr.func)) {
    out = Arithmetic(expr, l, r, n);
  } else if (IsComparison(expr.func)) {
    out = Comparison(expr.func, l, r, n);
  } else if (IsLogical(expr.func)) {
    out = Logical(expr.func == ScalarFunc::kAnd, l, r, n);
  } else {
    return Status::Unimplemented("eval: func");
  }
  if (fold) return Operand{nullptr, out->GetDatum(0)};
  return Operand{std::move(out), Datum()};
}

Result<Operand> EvalOperand(const Expression& expr, const RecordBatch& input) {
  switch (expr.kind) {
    case ExprKind::kFieldRef: {
      if (expr.field_index < 0 ||
          static_cast<size_t>(expr.field_index) >= input.num_columns()) {
        return Status::InvalidArgument("eval: field ref out of range");
      }
      const ColumnPtr& col = input.column(expr.field_index);
      POCS_DCHECK_NOTNULL(col.get());
      // The analyzer resolves refs against the batch schema; a length
      // mismatch here means a column was swapped without its siblings.
      POCS_DCHECK_EQ(col->length(), input.num_rows());
      return Operand{col, Datum()};
    }
    case ExprKind::kLiteral:
      return Operand{nullptr, expr.literal};
    case ExprKind::kCall:
      return EvalCall(expr, input);
  }
  return Status::Internal("eval: unknown expr kind");
}

// ---- filter selections --------------------------------------------------------

bool IsConstant(const Expression& expr) {
  if (expr.kind == ExprKind::kFieldRef) return false;
  for (const Expression& arg : expr.args) {
    if (!IsConstant(arg)) return false;
  }
  return true;
}

// `field <op> literal`: a comparison between an in-range field and a
// literal-only subtree (folded), with the field moved to the left.
struct FieldTest {
  int field;
  CompareOp op;
  Datum literal;
};

// The FieldTest `expr` is, if it is one. Errors are exactly those
// evaluating `expr` would raise; any other shape yields nullopt.
Result<std::optional<FieldTest>> MatchFieldTest(const Expression& expr,
                                                const RecordBatch& input) {
  if (expr.kind != ExprKind::kCall || !IsComparison(expr.func) ||
      expr.args.size() != 2) {
    return std::optional<FieldTest>();
  }
  const bool field_left = expr.args[0].kind == ExprKind::kFieldRef;
  const Expression& field = expr.args[field_left ? 0 : 1];
  const Expression& constant = expr.args[field_left ? 1 : 0];
  if (field.kind != ExprKind::kFieldRef || !IsConstant(constant) ||
      field.field_index < 0 ||
      static_cast<size_t>(field.field_index) >= input.num_columns()) {
    return std::optional<FieldTest>();
  }
  POCS_ASSIGN_OR_RETURN(Operand folded, EvalOperand(constant, input));
  const TypeKind field_type = input.column(field.field_index)->type();
  POCS_RETURN_NOT_OK(CheckCallTypes(
      expr.func, expr.type, field_left ? field_type : folded.type(),
      field_left ? folded.type() : field_type));
  const CompareOp op = ToCompareOp(expr.func);
  return std::optional<FieldTest>(FieldTest{
      field.field_index, field_left ? op : columnar::MirrorCompareOp(op),
      std::move(folded.scalar)});
}

// Rows of `sel` (every row when null) where a boolean mask is TRUE.
SelectionVector SelectTrue(const Column& mask, const SelectionVector* sel) {
  const uint8_t* bits = mask.bool_data().data();
  const uint8_t* valid = mask.has_nulls() ? mask.validity().data() : nullptr;
  SelectionVector out(sel ? sel->size() : mask.length());
  size_t k = 0;
  if (sel != nullptr) {
    for (uint32_t i : *sel) {
      out[k] = i;
      k += static_cast<size_t>((bits[i] != 0) &
                               (valid == nullptr || valid[i] != 0));
    }
  } else {
    const uint32_t n = static_cast<uint32_t>(mask.length());
    for (uint32_t i = 0; i < n; ++i) {
      out[k] = i;
      k += static_cast<size_t>((bits[i] != 0) &
                               (valid == nullptr || valid[i] != 0));
    }
  }
  out.resize(k);
  return out;
}

// The conjuncts of a predicate's AND spine, left to right.
void CollectConjuncts(const Expression& expr,
                      std::vector<const Expression*>* out) {
  if (expr.kind == ExprKind::kCall && expr.func == ScalarFunc::kAnd &&
      expr.args.size() == 2 && expr.type == TypeKind::kBool) {
    CollectConjuncts(expr.args[0], out);
    CollectConjuncts(expr.args[1], out);
    return;
  }
  out->push_back(&expr);
}

// One conjunct that is not a FieldTest (OR, NOT, IS NULL, column–column
// comparisons, boolean columns): evaluate it into a mask over the batch and
// keep the TRUE rows of `sel`.
Result<SelectionVector> SelectByMask(const Expression& expr,
                                     const RecordBatch& input,
                                     const SelectionVector* sel) {
  POCS_ASSIGN_OR_RETURN(Operand mask, EvalOperand(expr, input));
  if (mask.type() != TypeKind::kBool) {
    return Status::InvalidArgument("filter predicate must be boolean");
  }
  if (!mask.is_scalar()) return SelectTrue(*mask.column, sel);
  if (mask.scalar.is_null() || !mask.scalar.bool_value()) {
    return SelectionVector();
  }
  if (sel != nullptr) return *sel;
  SelectionVector all(input.num_rows());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

}  // namespace

CompareOp ToCompareOp(ScalarFunc func) {
  switch (func) {
    case ScalarFunc::kEq: return CompareOp::kEq;
    case ScalarFunc::kNe: return CompareOp::kNe;
    case ScalarFunc::kLt: return CompareOp::kLt;
    case ScalarFunc::kLe: return CompareOp::kLe;
    case ScalarFunc::kGt: return CompareOp::kGt;
    default: return CompareOp::kGe;
  }
}

Result<ColumnPtr> Evaluate(const Expression& expr, const RecordBatch& input) {
  POCS_ASSIGN_OR_RETURN(Operand value, EvalOperand(expr, input));
  if (value.is_scalar()) return Broadcast(value.scalar, input.num_rows());
  return std::move(value.column);
}

Result<SelectionVector> FilterSelection(const Expression& predicate,
                                        const RecordBatch& input) {
  return FilterSelection(predicate, input, nullptr);
}

Result<SelectionVector> FilterSelection(const Expression& predicate,
                                        const RecordBatch& input,
                                        const SelectionVector* input_sel) {
  if (predicate.type != TypeKind::kBool) {
    return Status::InvalidArgument("filter predicate must be boolean");
  }
  // Conjunct narrowing: each conjunct of the AND spine runs only over the
  // rows its predecessors kept. Conjuncts are still visited (and their
  // errors raised) after the selection empties.
  std::vector<const Expression*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  std::optional<SelectionVector> sel;
  std::optional<FieldTest> lookahead;
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    const SelectionVector* current = sel ? &*sel : input_sel;
    std::optional<FieldTest> test = std::move(lookahead);
    lookahead.reset();
    if (!test) {
      POCS_ASSIGN_OR_RETURN(test, MatchFieldTest(*conjuncts[c], input));
    }
    if (!test) {
      POCS_ASSIGN_OR_RETURN(sel, SelectByMask(*conjuncts[c], input, current));
      continue;
    }
    const Column& col = *input.column(test->field);
    // `f >= lo AND f <= hi`, BETWEEN's desugaring, runs as one fused pass.
    if (test->op == CompareOp::kGe && c + 1 < conjuncts.size()) {
      POCS_ASSIGN_OR_RETURN(lookahead,
                            MatchFieldTest(*conjuncts[c + 1], input));
      if (lookahead && lookahead->field == test->field &&
          lookahead->op == CompareOp::kLe) {
        sel = columnar::Between(col, test->literal, lookahead->literal,
                                current);
        lookahead.reset();
        ++c;
        continue;
      }
    }
    sel = columnar::CompareScalar(col, test->op, test->literal, current);
  }
  return std::move(*sel);
}

Result<RecordBatchPtr> FilterBatch(const Expression& predicate,
                                   const RecordBatch& input) {
  POCS_ASSIGN_OR_RETURN(SelectionVector sel, FilterSelection(predicate, input));
  return columnar::TakeBatch(input, sel);
}

}  // namespace pocs::substrait
