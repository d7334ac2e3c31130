#include "substrait/expr.h"

#include <sstream>

namespace pocs::substrait {

std::string_view ScalarFuncName(ScalarFunc func) {
  switch (func) {
    case ScalarFunc::kAdd: return "+";
    case ScalarFunc::kSubtract: return "-";
    case ScalarFunc::kMultiply: return "*";
    case ScalarFunc::kDivide: return "/";
    case ScalarFunc::kModulo: return "%";
    case ScalarFunc::kEq: return "=";
    case ScalarFunc::kNe: return "<>";
    case ScalarFunc::kLt: return "<";
    case ScalarFunc::kLe: return "<=";
    case ScalarFunc::kGt: return ">";
    case ScalarFunc::kGe: return ">=";
    case ScalarFunc::kAnd: return "AND";
    case ScalarFunc::kOr: return "OR";
    case ScalarFunc::kNot: return "NOT";
    case ScalarFunc::kNegate: return "-";
    case ScalarFunc::kIsNull: return "IS NULL";
  }
  return "?";
}

bool IsComparison(ScalarFunc func) {
  switch (func) {
    case ScalarFunc::kEq:
    case ScalarFunc::kNe:
    case ScalarFunc::kLt:
    case ScalarFunc::kLe:
    case ScalarFunc::kGt:
    case ScalarFunc::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(ScalarFunc func) {
  switch (func) {
    case ScalarFunc::kAdd:
    case ScalarFunc::kSubtract:
    case ScalarFunc::kMultiply:
    case ScalarFunc::kDivide:
    case ScalarFunc::kModulo:
    case ScalarFunc::kNegate:
      return true;
    default:
      return false;
  }
}

bool IsLogical(ScalarFunc func) {
  return func == ScalarFunc::kAnd || func == ScalarFunc::kOr ||
         func == ScalarFunc::kNot;
}

bool IsUnary(ScalarFunc func) {
  return func == ScalarFunc::kNot || func == ScalarFunc::kNegate ||
         func == ScalarFunc::kIsNull;
}

Status CheckCallTypes(ScalarFunc func, columnar::TypeKind result,
                      columnar::TypeKind a, columnar::TypeKind b) {
  using columnar::IsNumeric;
  using columnar::TypeKind;
  auto bad = [&](std::string_view what) {
    std::string msg(ScalarFuncName(func));
    msg += ": ";
    msg += what;
    msg += " (";
    msg += columnar::TypeName(a);
    if (!IsUnary(func)) {
      msg += ", ";
      msg += columnar::TypeName(b);
    }
    msg += " -> ";
    msg += columnar::TypeName(result);
    msg += ")";
    return Status::InvalidArgument(msg);
  };
  if (IsComparison(func)) {
    const bool strings = a == TypeKind::kString && b == TypeKind::kString;
    if (!strings && !(IsNumeric(a) && IsNumeric(b))) {
      return bad("needs two strings or two numerics");
    }
  } else if (IsArithmetic(func)) {
    const bool unary = func == ScalarFunc::kNegate;
    if (!IsNumeric(a) || (!unary && !IsNumeric(b)) || !IsNumeric(result)) {
      return bad("needs numerics");
    }
    const bool float_operand =
        a == TypeKind::kFloat64 || (!unary && b == TypeKind::kFloat64);
    if (float_operand && result != TypeKind::kFloat64) {
      return bad("a float64 operand needs a float64 result");
    }
    return Status::OK();
  } else if (IsLogical(func)) {
    if (a != TypeKind::kBool ||
        (func != ScalarFunc::kNot && b != TypeKind::kBool)) {
      return bad("needs bools");
    }
  }
  if (result != TypeKind::kBool) return bad("result must be bool");
  return Status::OK();
}

columnar::TypeKind Expression::PromoteNumeric(columnar::TypeKind a,
                                              columnar::TypeKind b) {
  using columnar::TypeKind;
  if (a == TypeKind::kFloat64 || b == TypeKind::kFloat64) {
    return TypeKind::kFloat64;
  }
  return TypeKind::kInt64;
}

std::string Expression::ToString(const columnar::Schema* input) const {
  switch (kind) {
    case ExprKind::kFieldRef:
      if (input && field_index >= 0 &&
          static_cast<size_t>(field_index) < input->num_fields()) {
        return input->field(field_index).name;
      }
      return "$" + std::to_string(field_index);
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kCall: {
      std::ostringstream os;
      if (args.size() == 1) {
        os << ScalarFuncName(func) << "(" << args[0].ToString(input) << ")";
      } else if (args.size() == 2) {
        os << "(" << args[0].ToString(input) << " " << ScalarFuncName(func)
           << " " << args[1].ToString(input) << ")";
      } else {
        os << ScalarFuncName(func) << "(";
        for (size_t i = 0; i < args.size(); ++i) {
          if (i) os << ", ";
          os << args[i].ToString(input);
        }
        os << ")";
      }
      return os.str();
    }
  }
  return "?";
}

void Expression::CollectFieldRefs(std::vector<int>* out) const {
  if (kind == ExprKind::kFieldRef) {
    out->push_back(field_index);
    return;
  }
  for (const Expression& arg : args) arg.CollectFieldRefs(out);
}

std::string_view AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kCountStar: return "COUNT(*)";
  }
  return "?";
}

}  // namespace pocs::substrait
