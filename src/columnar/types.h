// Logical data types, schema, and scalar Datum for the columnar layer.
// This plays the role Apache Arrow's type system plays in the paper's
// stack: the lingua franca between the engine, the storage format, the
// plan IR, and the OCS result path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace pocs::columnar {

enum class TypeKind : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kFloat64 = 3,
  kString = 4,
  kDate32 = 5,  // days since UNIX epoch, stored as int32
};

std::string_view TypeName(TypeKind kind);
bool IsNumeric(TypeKind kind);

// The one comparison rule for numeric values, shared by the evaluator, the
// scalar kernels, S3 Select, the Hive fallback and stats pruning: two
// integer operands (bool, int32, date32, int64) compare as int64; anything
// involving float64 compares as double.
inline bool ComparesAsDouble(TypeKind a, TypeKind b) {
  return a == TypeKind::kFloat64 || b == TypeKind::kFloat64;
}
// Fixed byte width of a value; 0 for variable-width (kString).
size_t TypeWidth(TypeKind kind);

struct Field {
  std::string name;
  TypeKind type;
  bool nullable = true;

  bool operator==(const Field& other) const = default;
};

// Immutable column layout of a table or batch.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  // Index of the field with `name`, or -1 if absent.
  int FieldIndex(std::string_view name) const;

  bool Equals(const Schema& other) const { return fields_ == other.fields_; }
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

inline SchemaPtr MakeSchema(std::vector<Field> fields) {
  return std::make_shared<const Schema>(std::move(fields));
}

// A typed scalar value (possibly null). Used for filter literals,
// aggregate results, and statistics.
class Datum {
 public:
  Datum() : type_(TypeKind::kInt64), null_(true) {}

  static Datum Null(TypeKind type) {
    Datum d;
    d.type_ = type;
    d.null_ = true;
    return d;
  }
  static Datum Bool(bool v) { return Datum(TypeKind::kBool, v); }
  static Datum Int32(int32_t v) { return Datum(TypeKind::kInt32, v); }
  static Datum Int64(int64_t v) { return Datum(TypeKind::kInt64, v); }
  static Datum Float64(double v) { return Datum(TypeKind::kFloat64, v); }
  static Datum String(std::string v) {
    return Datum(TypeKind::kString, std::move(v));
  }
  static Datum Date32(int32_t days) { return Datum(TypeKind::kDate32, days); }

  TypeKind type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return std::get<bool>(value_); }
  int32_t int32_value() const { return std::get<int32_t>(value_); }
  int64_t int64_value() const { return std::get<int64_t>(value_); }
  double float64_value() const { return std::get<double>(value_); }
  const std::string& string_value() const { return std::get<std::string>(value_); }

  // Numeric value widened to double (int32/int64/float64/date32/bool).
  double AsDouble() const;
  // Numeric value as int64 (int32/int64/date32/bool).
  int64_t AsInt64() const;

  // Total order consistent with column sort order; nulls sort first.
  // Comparing across incompatible types is a caller bug.
  int Compare(const Datum& other) const;
  bool operator==(const Datum& other) const { return Compare(other) == 0; }

  std::string ToString() const;

 private:
  Datum(TypeKind t, bool v) : type_(t), null_(false), value_(v) {}
  Datum(TypeKind t, int32_t v) : type_(t), null_(false), value_(v) {}
  Datum(TypeKind t, int64_t v) : type_(t), null_(false), value_(v) {}
  Datum(TypeKind t, double v) : type_(t), null_(false), value_(v) {}
  Datum(TypeKind t, std::string v)
      : type_(t), null_(false), value_(std::move(v)) {}

  TypeKind type_;
  bool null_;
  std::variant<bool, int32_t, int64_t, double, std::string> value_;
};

// Days-since-epoch helpers for kDate32 (proleptic Gregorian).
int32_t DaysFromCivil(int year, int month, int day);
void CivilFromDays(int32_t days, int* year, int* month, int* day);

}  // namespace pocs::columnar
