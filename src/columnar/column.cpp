#include "columnar/column.h"

namespace pocs::columnar {

Column::Column(TypeKind type) : type_(type) {
  if (type == TypeKind::kString) Push<int32_t>(&values_, 0);
}

Column::Column(TypeKind type, size_t length, size_t null_count,
               Buffer validity, Buffer values, Buffer chars)
    : type_(type),
      length_(length),
      null_count_(null_count),
      validity_(std::move(validity)),
      values_(std::move(values)),
      chars_(std::move(chars)) {
  POCS_DCHECK_EQ(validity_.size(), null_count > 0 ? length : 0);
  POCS_DCHECK_EQ(values_.size(), ValuesBytes(type, length));
}

Datum Column::GetDatum(size_t i) const {
  if (IsNull(i)) return Datum::Null(type_);
  switch (type_) {
    case TypeKind::kBool: return Datum::Bool(GetBool(i));
    case TypeKind::kInt32: return Datum::Int32(GetInt32(i));
    case TypeKind::kDate32: return Datum::Date32(GetInt32(i));
    case TypeKind::kInt64: return Datum::Int64(GetInt64(i));
    case TypeKind::kFloat64: return Datum::Float64(GetFloat64(i));
    case TypeKind::kString: return Datum::String(std::string(GetString(i)));
  }
  return Datum::Null(type_);
}

void Column::AppendNull() {
  if (null_count_ == 0) FillValidity();
  Push<uint8_t>(&validity_, 0);
  ++null_count_;
  switch (type_) {
    case TypeKind::kBool: Push<uint8_t>(&values_, 0); break;
    case TypeKind::kInt32:
    case TypeKind::kDate32: Push<int32_t>(&values_, 0); break;
    case TypeKind::kInt64: Push<int64_t>(&values_, 0); break;
    case TypeKind::kFloat64: Push<double>(&values_, 0); break;
    case TypeKind::kString:
      Push<int32_t>(&values_, Value<int32_t>(length_));
      break;
  }
  ++length_;
}

void Column::AppendBool(bool v) {
  POCS_DCHECK(type_ == TypeKind::kBool);
  MarkValid();
  Push<uint8_t>(&values_, v ? 1 : 0);
  ++length_;
}

void Column::AppendInt32(int32_t v) {
  POCS_DCHECK(type_ == TypeKind::kInt32 || type_ == TypeKind::kDate32);
  MarkValid();
  Push<int32_t>(&values_, v);
  ++length_;
}

void Column::AppendInt64(int64_t v) {
  POCS_DCHECK(type_ == TypeKind::kInt64);
  MarkValid();
  Push<int64_t>(&values_, v);
  ++length_;
}

void Column::AppendFloat64(double v) {
  POCS_DCHECK(type_ == TypeKind::kFloat64);
  MarkValid();
  Push<double>(&values_, v);
  ++length_;
}

void Column::AppendString(std::string_view v) {
  POCS_DCHECK(type_ == TypeKind::kString);
  MarkValid();
  if (!v.empty()) std::memcpy(chars_.Append(v.size()), v.data(), v.size());
  Push<int32_t>(&values_, static_cast<int32_t>(chars_.size()));
  ++length_;
}

void Column::AppendDatum(const Datum& d) {
  if (d.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeKind::kBool: AppendBool(d.bool_value()); break;
    case TypeKind::kInt32:
    case TypeKind::kDate32: AppendInt32(static_cast<int32_t>(d.AsInt64())); break;
    case TypeKind::kInt64: AppendInt64(d.AsInt64()); break;
    case TypeKind::kFloat64: AppendFloat64(d.AsDouble()); break;
    case TypeKind::kString: AppendString(d.string_value()); break;
  }
}

void Column::AppendFrom(const Column& src, size_t i) {
  POCS_DCHECK(src.type_ == type_);
  POCS_DCHECK_LT(i, src.length_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeKind::kBool: AppendBool(src.GetBool(i)); break;
    case TypeKind::kInt32:
    case TypeKind::kDate32: AppendInt32(src.GetInt32(i)); break;
    case TypeKind::kInt64: AppendInt64(src.GetInt64(i)); break;
    case TypeKind::kFloat64: AppendFloat64(src.GetFloat64(i)); break;
    case TypeKind::kString: AppendString(src.GetString(i)); break;
  }
}

void Column::AppendRange(const Column& src, size_t begin, size_t count) {
  POCS_DCHECK(src.type_ == type_);
  POCS_DCHECK_LE(begin + count, src.length_);
  if (count == 0) return;
  size_t src_nulls = 0;
  if (src.has_nulls()) {
    for (size_t i = begin; i < begin + count; ++i) {
      src_nulls += src.validity_.data()[i] == 0 ? 1 : 0;
    }
  }
  if (null_count_ + src_nulls > 0) {
    if (null_count_ == 0) FillValidity();
    uint8_t* v = validity_.Append(count);
    if (src.has_nulls()) {
      std::memcpy(v, src.validity_.data() + begin, count);
    } else {
      std::memset(v, 1, count);
    }
  }
  if (type_ == TypeKind::kString) {
    const int32_t* soff = src.offsets().data() + begin;
    const int32_t base = Value<int32_t>(length_);
    const size_t bytes = static_cast<size_t>(soff[count] - soff[0]);
    if (bytes > 0) {
      std::memcpy(chars_.Append(bytes), src.chars_.data() + soff[0], bytes);
    }
    auto* off = reinterpret_cast<int32_t*>(values_.Append(count * 4));
    for (size_t i = 0; i < count; ++i) off[i] = base + (soff[i + 1] - soff[0]);
  } else {
    const size_t width = TypeWidth(type_);
    std::memcpy(values_.Append(count * width), src.values_.data() + begin * width,
                count * width);
  }
  null_count_ += src_nulls;
  length_ += count;
}

void Column::FillValidity() {
  if (length_ > 0) std::memset(validity_.Append(length_), 1, length_);
}

void Column::Reserve(size_t n) {
  if (type_ == TypeKind::kString) {
    values_.Reserve((n + 1) * 4);
  } else {
    values_.Reserve(n * TypeWidth(type_));
  }
}

Status CheckValidity(ByteSpan validity, size_t null_count) {
  size_t valid = 0;
  bool flags = true;
  for (uint8_t v : validity) {
    valid += v;
    flags &= v <= 1;
  }
  if (!flags || null_count > validity.size() ||
      valid != validity.size() - null_count) {
    return Status::Corruption("validity disagrees with null count");
  }
  return Status::OK();
}

std::shared_ptr<Column> MakeColumn(TypeKind type) {
  return std::make_shared<Column>(type);
}

}  // namespace pocs::columnar
