// Column: a typed, optionally-nullable vector of values, held as up to
// three byte buffers (common/buffer.h): validity, values or string
// offsets, and string chars. A decoded column's buffers are slices of the
// bytes it was decoded from (an RPC response frame, a page), so decoding
// copies no values; a built column appends into buffers of its own and
// keeps them as they are. Building and reading are unified in one class;
// columns handed across module boundaries travel as
// shared_ptr<const Column> and are treated as immutable from then on.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "columnar/types.h"
#include "common/buffer.h"
#include "common/check.h"

namespace pocs::columnar {

class Column;
using ColumnPtr = std::shared_ptr<const Column>;

class Column {
 public:
  explicit Column(TypeKind type);
  // A column over buffers it shares, as it is laid out in memory:
  // `validity` holds one byte per row, 0 (null) or 1, when null_count > 0
  // and is empty otherwise; `values` holds `length` fixed-width values,
  // or length + 1 int32 offsets into `chars` for strings. Each buffer is
  // aligned for its element type. Decoders check these invariants before
  // they build a column.
  Column(TypeKind type, size_t length, size_t null_count, Buffer validity,
         Buffer values, Buffer chars = {});

  TypeKind type() const { return type_; }
  size_t length() const { return length_; }

  // ---- nullability -------------------------------------------------------
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }
  bool IsNull(size_t i) const {
    POCS_DCHECK_LT(i, length_);
    return !validity_.empty() && validity_.data()[i] == 0;
  }

  // ---- typed accessors (caller must match type; checked in debug) -------
  bool GetBool(size_t i) const {
    POCS_DCHECK(type_ == TypeKind::kBool);
    POCS_DCHECK_LT(i, length_);
    return values_.data()[i] != 0;
  }
  int32_t GetInt32(size_t i) const {
    POCS_DCHECK(type_ == TypeKind::kInt32 || type_ == TypeKind::kDate32);
    POCS_DCHECK_LT(i, length_);
    return Value<int32_t>(i);
  }
  int64_t GetInt64(size_t i) const {
    POCS_DCHECK(type_ == TypeKind::kInt64);
    POCS_DCHECK_LT(i, length_);
    return Value<int64_t>(i);
  }
  double GetFloat64(size_t i) const {
    POCS_DCHECK(type_ == TypeKind::kFloat64);
    POCS_DCHECK_LT(i, length_);
    return Value<double>(i);
  }
  std::string_view GetString(size_t i) const {
    POCS_DCHECK(type_ == TypeKind::kString);
    POCS_DCHECK_LT(i, length_);
    const int32_t begin = Value<int32_t>(i);
    const int32_t end = Value<int32_t>(i + 1);
    POCS_DCHECK_LE(begin, end);
    POCS_DCHECK_LE(static_cast<size_t>(end), chars_.size());
    return std::string_view(reinterpret_cast<const char*>(chars_.data()) + begin,
                            static_cast<size_t>(end - begin));
  }

  // Value widened to double for numeric types (null → 0; check IsNull).
  double AsDouble(size_t i) const {
    POCS_DCHECK_LT(i, length_);
    switch (type_) {
      case TypeKind::kBool: return values_.data()[i] ? 1.0 : 0.0;
      case TypeKind::kInt32:
      case TypeKind::kDate32: return static_cast<double>(Value<int32_t>(i));
      case TypeKind::kInt64: return static_cast<double>(Value<int64_t>(i));
      case TypeKind::kFloat64: return Value<double>(i);
      case TypeKind::kString: return 0.0;
    }
    return 0.0;
  }

  Datum GetDatum(size_t i) const;

  // ---- appends -----------------------------------------------------------
  void AppendNull();
  void AppendBool(bool v);
  void AppendInt32(int32_t v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);
  // Append any datum of matching type (null allowed).
  void AppendDatum(const Datum& d);
  // Append value at index i of src (same type).
  void AppendFrom(const Column& src, size_t i);
  // Append rows [begin, begin + count) of another column of the same
  // type, buffer by buffer.
  void AppendRange(const Column& src, size_t begin, size_t count);

  void Reserve(size_t n);

  // ---- bulk typed data (for kernels and serialization) -------------------
  std::span<const uint8_t> bool_data() const { return values_.span(); }
  std::span<const int32_t> i32_data() const { return values_.As<int32_t>(); }
  std::span<const int64_t> i64_data() const { return values_.As<int64_t>(); }
  std::span<const double> f64_data() const { return values_.As<double>(); }
  std::span<const int32_t> offsets() const { return values_.As<int32_t>(); }
  std::string_view chars() const {
    return std::string_view(reinterpret_cast<const char*>(chars_.data()),
                            chars_.size());
  }
  std::span<const uint8_t> validity() const { return validity_.span(); }

  // The buffers themselves, for serialization.
  const Buffer& validity_buffer() const { return validity_; }
  const Buffer& values_buffer() const { return values_; }
  const Buffer& chars_buffer() const { return chars_; }

  // In-memory footprint of the value data (used for byte accounting).
  size_t ByteSize() const {
    return validity_.size() + values_.size() + chars_.size();
  }

 private:
  template <typename T>
  T Value(size_t i) const {
    return reinterpret_cast<const T*>(values_.data())[i];
  }
  template <typename T>
  void Push(Buffer* buffer, T v) {
    std::memcpy(buffer->Append(sizeof(T)), &v, sizeof(T));
  }
  // Validity exists exactly while some row is null: the first null
  // marks every earlier row valid.
  void MarkValid() {
    if (null_count_ > 0) Push<uint8_t>(&validity_, 1);
  }
  void FillValidity();

  TypeKind type_;
  size_t length_ = 0;
  size_t null_count_ = 0;
  Buffer validity_;  // empty == all valid
  Buffer values_;    // values, or length + 1 string offsets
  Buffer chars_;     // string bytes
};

using ColumnBuilder = Column;  // building and reading share one class

// Bytes of a values buffer: `length` fixed-width values, or length + 1
// int32 offsets for strings.
inline size_t ValuesBytes(TypeKind type, size_t length) {
  return type == TypeKind::kString ? (length + 1) * 4
                                   : length * TypeWidth(type);
}

// Decoders' check of decoded validity bytes: each is 0 or 1, and
// `null_count` of them are 0. Kernels count and mask with these bytes
// (`ones += v[i]`, `match & v[i]`), so any other byte would read as
// different rows on different paths.
Status CheckValidity(ByteSpan validity, size_t null_count);

std::shared_ptr<Column> MakeColumn(TypeKind type);

}  // namespace pocs::columnar
