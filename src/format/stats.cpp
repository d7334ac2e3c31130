#include "format/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/hash.h"

namespace pocs::format {

using columnar::Column;
using columnar::Datum;
using columnar::TypeKind;

void ColumnStats::Merge(const ColumnStats& other) {
  if (min.is_null() || (!other.min.is_null() && other.min.Compare(min) < 0)) {
    min = other.min;
  }
  if (max.is_null() || (!other.max.is_null() && other.max.Compare(max) > 0)) {
    max = other.max;
  }
  row_count += other.row_count;
  null_count += other.null_count;
  // NDV union upper bound; per-chunk NDVs can overlap, so this
  // overestimates — acceptable for the pushdown estimator which only
  // needs order of magnitude.
  ndv = std::min<uint64_t>(ndv + other.ndv, row_count);
  ndv_capped = ndv_capped || other.ndv_capped;
}

void ColumnStats::Serialize(BufferWriter* out) const {
  columnar::ipc::WriteDatum(min, out);
  columnar::ipc::WriteDatum(max, out);
  out->WriteVarint(row_count);
  out->WriteVarint(null_count);
  out->WriteVarint(ndv);
  out->WriteU8(ndv_capped ? 1 : 0);
}

Result<ColumnStats> ColumnStats::Deserialize(BufferReader* in) {
  ColumnStats s;
  POCS_ASSIGN_OR_RETURN(s.min, columnar::ipc::ReadDatum(in));
  POCS_ASSIGN_OR_RETURN(s.max, columnar::ipc::ReadDatum(in));
  POCS_ASSIGN_OR_RETURN(s.row_count, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(s.null_count, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(s.ndv, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(uint8_t capped, in->ReadU8());
  s.ndv_capped = capped != 0;
  return s;
}

void DistinctHashes::Clear() {
  slots_.assign(kMinSlots, 0);
  mask_ = kMinSlots - 1;
  size_ = 0;
  has_zero_ = false;
}

void DistinctHashes::Rehash(size_t slots) {
  std::vector<uint64_t> old;
  // An empty table is refilled in place, keeping its allocation.
  if (size_ > (has_zero_ ? 1 : 0)) old.swap(slots_);
  slots_.assign(slots, 0);
  mask_ = slots - 1;
  for (uint64_t h : old) {
    if (h == 0) continue;
    size_t i = h & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = h;
  }
}

namespace {

bool IsNaN(const Datum& d) {
  return !d.is_null() && d.type() == TypeKind::kFloat64 &&
         std::isnan(d.float64_value());
}

// The datum of a value of a column of `type`, read in its pass type.
Datum ValueDatum(TypeKind type, int64_t v) {
  switch (type) {
    case TypeKind::kBool: return Datum::Bool(v != 0);
    case TypeKind::kInt32: return Datum::Int32(static_cast<int32_t>(v));
    case TypeKind::kDate32: return Datum::Date32(static_cast<int32_t>(v));
    default: return Datum::Int64(v);
  }
}
Datum ValueDatum(TypeKind, double v) { return Datum::Float64(v); }
Datum ValueDatum(TypeKind, std::string_view v) {
  return Datum::String(std::string(v));
}

// The NDV hash of a value read in its pass type.
uint64_t ValueHash(int64_t v) { return HashValue(v); }
uint64_t ValueHash(double v) { return HashValue(v); }
uint64_t ValueHash(std::string_view v) { return HashString(v); }

// a < b in Datum::Compare's order. Strings order as unsigned bytes, as
// std::string_view's operator< does, but short prefixes are compared
// inline rather than by a call to memcmp per row.
template <typename V>
bool Less(V a, V b) {
  return a < b;
}
bool Less(std::string_view a, std::string_view b) {
  const size_t common = std::min(a.size(), b.size());
  size_t i = 0;
  for (; i < common && i < 16; ++i) {
    if (a[i] != b[i]) {
      return static_cast<uint8_t>(a[i]) < static_cast<uint8_t>(b[i]);
    }
  }
  if (i < common) {
    const int c = std::memcmp(a.data() + i, b.data() + i, common - i);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

void StatsCollector::Reset(TypeKind type) {
  type_ = type;
  stats_ = ColumnStats{};
  stats_.min = stats_.max = lo_ = hi_ = Datum::Null(type);
  distinct_.Clear();
}

// The running min and max of `n` rows, `read(i)` giving row i's value in
// its pass type. Each is replaced only by a strictly smaller (larger)
// value, so each ends as the first of its equals, and a NaN replaces
// neither.
template <typename Read>
void StatsCollector::Extremes(size_t n, const uint8_t* valid, Read read) {
  using V = std::invoke_result_t<Read, size_t>;
  size_t i = 0;
  while (i < n && valid != nullptr && valid[i] == 0) ++i;
  if (i == n) return;
  std::optional<V> leading_nan;
  if constexpr (std::is_floating_point_v<V>) {
    if (std::isnan(read(i))) {
      leading_nan = read(i);
      do {
        ++i;
      } while (i < n &&
               ((valid != nullptr && valid[i] == 0) || std::isnan(read(i))));
    }
  }
  Datum lo = Datum::Null(type_);
  Datum hi = Datum::Null(type_);
  if (i < n) {
    V min = read(i);
    V max = min;
    auto see = [&](size_t row) {
      const V v = read(row);
      if (Less(v, min)) min = v;
      if (Less(max, v)) max = v;
    };
    if (valid == nullptr) {
      for (++i; i < n; ++i) see(i);
    } else {
      for (++i; i < n; ++i) {
        if (valid[i] != 0) see(i);
      }
    }
    lo = ValueDatum(type_, min);
    hi = ValueDatum(type_, max);
  }
  if (leading_nan) {
    const Datum nan = ValueDatum(type_, *leading_nan);
    Fold(lo, hi, &nan);
  } else {
    Fold(lo, hi, nullptr);
  }
}

void StatsCollector::Fold(const Datum& lo, const Datum& hi,
                          const Datum* leading_nan) {
  if (!lo.is_null()) {
    if (lo_.is_null() || lo.Compare(lo_) < 0) lo_ = lo;
    if (hi_.is_null() || hi.Compare(hi_) > 0) hi_ = hi;
  }
  if (IsNaN(stats_.min)) return;  // a leading NaN stays min and max
  if (stats_.min.is_null() && leading_nan != nullptr) {
    stats_.min = stats_.max = *leading_nan;
  } else {
    stats_.min = lo_;
    stats_.max = hi_;
  }
}

void StatsCollector::Update(const Column& col) {
  POCS_DCHECK(col.type() == type_);
  const size_t n = col.length();
  const std::span<const uint8_t> validity = col.validity();
  const uint8_t* valid = validity.empty() ? nullptr : validity.data();
  stats_.row_count += n;
  stats_.null_count += std::count(validity.begin(), validity.end(), 0);

  // `read(i)` gives row i's value in its pass type: integers, dates and
  // bools widened to int64, doubles as they are and strings as views of
  // the column's bytes.
  auto pass = [&](auto read) {
    Extremes(n, valid, read);
    if (stats_.ndv_capped) return;
    distinct_.Reserve(std::min(distinct_.size() + n, kNdvCap));
    for (size_t i = 0; i < n && !stats_.ndv_capped; ++i) {
      if (valid == nullptr || valid[i] != 0) AddDistinct(ValueHash(read(i)));
    }
  };
  switch (type_) {
    case TypeKind::kBool: {
      const uint8_t* v = col.bool_data().data();
      pass([v](size_t i) { return int64_t{v[i] != 0}; });
      break;
    }
    case TypeKind::kInt32:
    case TypeKind::kDate32: {
      const int32_t* v = col.i32_data().data();
      pass([v](size_t i) { return int64_t{v[i]}; });
      break;
    }
    case TypeKind::kInt64: {
      const int64_t* v = col.i64_data().data();
      pass([v](size_t i) { return v[i]; });
      break;
    }
    case TypeKind::kFloat64: {
      const double* v = col.f64_data().data();
      pass([v](size_t i) { return v[i]; });
      break;
    }
    case TypeKind::kString: {
      const int32_t* off = col.offsets().data();
      const char* chars = col.chars().data();
      pass([off, chars](size_t i) {
        return std::string_view(chars + off[i],
                                static_cast<size_t>(off[i + 1] - off[i]));
      });
      break;
    }
  }
  stats_.ndv = distinct_.size();
}

void StatsCollector::Merge(const StatsCollector& later) {
  POCS_DCHECK(later.type_ == type_);
  stats_.row_count += later.stats_.row_count;
  stats_.null_count += later.stats_.null_count;
  Fold(later.lo_, later.hi_,
       IsNaN(later.stats_.min) ? &later.stats_.min : nullptr);
  if (!stats_.ndv_capped) {
    distinct_.Reserve(
        std::min(distinct_.size() + later.distinct_.size(), kNdvCap));
    later.distinct_.ForEach([&](uint64_t h) { AddDistinct(h); });
  }
  stats_.ndv = distinct_.size();
}

}  // namespace pocs::format
