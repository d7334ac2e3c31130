#include "columnar/types.h"

#include <cmath>
#include <sstream>

namespace pocs::columnar {

std::string_view TypeName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool: return "bool";
    case TypeKind::kInt32: return "int32";
    case TypeKind::kInt64: return "int64";
    case TypeKind::kFloat64: return "float64";
    case TypeKind::kString: return "string";
    case TypeKind::kDate32: return "date32";
  }
  return "?";
}

bool IsNumeric(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32:
    case TypeKind::kInt64:
    case TypeKind::kFloat64:
    case TypeKind::kDate32:
      return true;
    default:
      return false;
  }
}

size_t TypeWidth(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool: return 1;
    case TypeKind::kInt32: return 4;
    case TypeKind::kInt64: return 8;
    case TypeKind::kFloat64: return 8;
    case TypeKind::kString: return 0;
    case TypeKind::kDate32: return 4;
  }
  return 0;
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "schema(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) os << ", ";
    os << fields_[i].name << ": " << TypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

double Datum::AsDouble() const {
  switch (type_) {
    case TypeKind::kBool: return bool_value() ? 1.0 : 0.0;
    case TypeKind::kInt32: return static_cast<double>(int32_value());
    case TypeKind::kInt64: return static_cast<double>(int64_value());
    case TypeKind::kFloat64: return float64_value();
    case TypeKind::kDate32: return static_cast<double>(int32_value());
    case TypeKind::kString: return 0.0;
  }
  return 0.0;
}

int64_t Datum::AsInt64() const {
  switch (type_) {
    case TypeKind::kBool: return bool_value() ? 1 : 0;
    case TypeKind::kInt32: return int32_value();
    case TypeKind::kInt64: return int64_value();
    case TypeKind::kFloat64: return static_cast<int64_t>(float64_value());
    case TypeKind::kDate32: return int32_value();
    case TypeKind::kString: return 0;
  }
  return 0;
}

int Datum::Compare(const Datum& other) const {
  if (null_ && other.null_) return 0;
  if (null_) return -1;
  if (other.null_) return 1;
  if (type_ == TypeKind::kString || other.type_ == TypeKind::kString) {
    return string_value().compare(other.string_value()) < 0
               ? -1
               : (string_value() == other.string_value() ? 0 : 1);
  }
  if (!ComparesAsDouble(type_, other.type_)) {
    const int64_t a = AsInt64();
    const int64_t b = other.AsInt64();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  double a = AsDouble();
  double b = other.AsDouble();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

std::string Datum::ToString() const {
  if (null_) return "null";
  switch (type_) {
    case TypeKind::kBool: return bool_value() ? "true" : "false";
    case TypeKind::kInt32: return std::to_string(int32_value());
    case TypeKind::kInt64: return std::to_string(int64_value());
    case TypeKind::kFloat64: {
      std::ostringstream os;
      os << float64_value();
      return os.str();
    }
    case TypeKind::kString: return "'" + string_value() + "'";
    case TypeKind::kDate32: {
      int y, m, d;
      CivilFromDays(int32_value(), &y, &m, &d);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
      return buf;
    }
  }
  return "?";
}

// Howard Hinnant's civil-days algorithms.
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int32_t days, int* year, int* month, int* day) {
  // 64-bit so the extreme int32 day counts do not overflow the shift.
  const int64_t z = static_cast<int64_t>(days) + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(static_cast<int64_t>(yoe) + era * 400);
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = y + (m <= 2);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

}  // namespace pocs::columnar
