// Expression tree of the plan IR — the role Substrait's expression
// messages play in the paper: a standardized, engine-neutral encoding of
// filter predicates, projection arithmetic, and aggregate arguments that
// the connector emits and the OCS embedded engine consumes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "columnar/types.h"
#include "common/status.h"

namespace pocs::substrait {

enum class ExprKind : uint8_t {
  kFieldRef = 0,  // input column by index
  kLiteral = 1,
  kCall = 2,  // scalar function application
};

enum class ScalarFunc : uint8_t {
  kAdd = 0,
  kSubtract,
  kMultiply,
  kDivide,
  kModulo,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kNegate,
  kIsNull,  // unary; NOT null-propagating: returns true/false, never null
};

std::string_view ScalarFuncName(ScalarFunc func);
bool IsComparison(ScalarFunc func);
bool IsArithmetic(ScalarFunc func);
bool IsLogical(ScalarFunc func);
// True for the one-argument functions: NOT, negate and IS NULL.
bool IsUnary(ScalarFunc func);

// InvalidArgument unless the evaluator's kernels define `func` over
// operands of types `a` (and `b`, ignored for unary functions) with
// result type `result`:
//   * comparison: two strings, or two numerics; result bool;
//   * arithmetic and negate: numerics; the result is numeric, and
//     float64 when an operand is;
//   * AND, OR, NOT: bools; IS NULL: any operand; result bool.
// Plan validation checks declared types with it and the evaluator checks
// the operands it actually gets, so an ill-typed plan is an error, never
// a read of the wrong value buffer.
Status CheckCallTypes(ScalarFunc func, columnar::TypeKind result,
                      columnar::TypeKind a, columnar::TypeKind b);

struct Expression {
  ExprKind kind = ExprKind::kLiteral;
  columnar::TypeKind type = columnar::TypeKind::kBool;  // result type

  int field_index = -1;                              // kFieldRef
  columnar::Datum literal;                           // kLiteral
  ScalarFunc func = ScalarFunc::kAdd;                // kCall
  std::vector<Expression> args;                      // kCall

  static Expression FieldRef(int index, columnar::TypeKind type) {
    Expression e;
    e.kind = ExprKind::kFieldRef;
    e.field_index = index;
    e.type = type;
    return e;
  }
  static Expression Literal(columnar::Datum value) {
    Expression e;
    e.kind = ExprKind::kLiteral;
    e.type = value.type();
    e.literal = std::move(value);
    return e;
  }
  static Expression Call(ScalarFunc func, std::vector<Expression> args,
                         columnar::TypeKind type) {
    Expression e;
    e.kind = ExprKind::kCall;
    e.func = func;
    e.args = std::move(args);
    e.type = type;
    return e;
  }

  // Result type of an arithmetic call over the given operand types
  // (float64 wins; otherwise int64).
  static columnar::TypeKind PromoteNumeric(columnar::TypeKind a,
                                           columnar::TypeKind b);

  // Human-readable form, e.g. "(x >= 0.8)".
  std::string ToString(const columnar::Schema* input = nullptr) const;

  // All field indices referenced anywhere in the tree.
  void CollectFieldRefs(std::vector<int>* out) const;
};

enum class AggFunc : uint8_t {
  kSum = 0,
  kMin,
  kMax,
  kAvg,
  kCount,      // COUNT(expr): non-null rows
  kCountStar,  // COUNT(*)
};

std::string_view AggFuncName(AggFunc func);

struct AggregateSpec {
  AggFunc func = AggFunc::kCountStar;
  Expression argument;  // ignored for kCountStar
  std::string output_name;

  columnar::TypeKind OutputType() const {
    switch (func) {
      case AggFunc::kCount:
      case AggFunc::kCountStar:
        return columnar::TypeKind::kInt64;
      case AggFunc::kAvg:
        return columnar::TypeKind::kFloat64;
      case AggFunc::kSum:
        return columnar::IsNumeric(argument.type) &&
                       argument.type != columnar::TypeKind::kFloat64
                   ? columnar::TypeKind::kInt64
                   : columnar::TypeKind::kFloat64;
      case AggFunc::kMin:
      case AggFunc::kMax:
        return argument.type;
    }
    return columnar::TypeKind::kFloat64;
  }
};

}  // namespace pocs::substrait
