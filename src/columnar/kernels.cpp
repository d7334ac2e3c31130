#include "columnar/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "common/hash.h"

// Vectorization hint for provably dependence-free elementwise loops.
// GCC's ivdep is a pure hint (never diagnoses on failure); under other
// compilers the plain loop is the scalar fallback and -O level decides.
#if defined(__GNUC__) && !defined(__clang__)
#define POCS_VEC_LOOP _Pragma("GCC ivdep")
#else
#define POCS_VEC_LOOP
#endif

namespace pocs::columnar {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

CompareOp MirrorCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

namespace {

// Branch-free compress-store: unconditionally write the candidate index,
// advance the output cursor only when the predicate holds. `valid` is
// nullptr for null-free columns; V is the storage type, T the (possibly
// widened) comparison type so int32 vs int64-literal compares stay exact.
template <CompareOp Op, typename T, typename V>
size_t CompareDense(const V* vals, const uint8_t* valid, uint32_t n, T lit,
                    uint32_t* out) {
  size_t k = 0;
  if (valid == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      out[k] = i;
      k += static_cast<size_t>(CompareHolds<Op>(static_cast<T>(vals[i]), lit));
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      out[k] = i;
      k += static_cast<size_t>((valid[i] != 0) &
                               CompareHolds<Op>(static_cast<T>(vals[i]), lit));
    }
  }
  return k;
}

template <CompareOp Op, typename T, typename V>
size_t CompareSelected(const V* vals, const uint8_t* valid,
                       const uint32_t* sel, size_t m, T lit, uint32_t* out) {
  size_t k = 0;
  if (valid == nullptr) {
    for (size_t j = 0; j < m; ++j) {
      const uint32_t i = sel[j];
      out[k] = i;
      k += static_cast<size_t>(CompareHolds<Op>(static_cast<T>(vals[i]), lit));
    }
  } else {
    for (size_t j = 0; j < m; ++j) {
      const uint32_t i = sel[j];
      out[k] = i;
      k += static_cast<size_t>((valid[i] != 0) &
                               CompareHolds<Op>(static_cast<T>(vals[i]), lit));
    }
  }
  return k;
}

template <typename T, typename V>
size_t CompareTyped(const V* vals, const uint8_t* valid, size_t n,
                    CompareOp op, T lit, const SelectionVector* input,
                    uint32_t* out) {
  return WithCompareOp(op, [&](auto opc) {
    constexpr CompareOp kOp = decltype(opc)::value;
    if (input != nullptr) {
      return CompareSelected<kOp, T>(vals, valid, input->data(),
                                     input->size(), lit, out);
    }
    return CompareDense<kOp, T>(vals, valid, static_cast<uint32_t>(n), lit,
                                out);
  });
}

template <CompareOp Op>
size_t CompareStrings(const Column& col, std::string_view lit,
                      const SelectionVector* input, uint32_t* out) {
  const StringSpan strings(col);
  const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
  size_t k = 0;
  if (input != nullptr) {
    for (uint32_t i : *input) {
      if (valid != nullptr && valid[i] == 0) continue;
      out[k] = i;
      k += static_cast<size_t>(CompareHolds<Op>(strings[i], lit));
    }
  } else {
    const uint32_t n = static_cast<uint32_t>(col.length());
    for (uint32_t i = 0; i < n; ++i) {
      if (valid != nullptr && valid[i] == 0) continue;
      out[k] = i;
      k += static_cast<size_t>(CompareHolds<Op>(strings[i], lit));
    }
  }
  return k;
}

// Fused BETWEEN: both bounds tested in one traversal (the old
// implementation allocated an intermediate selection between two
// CompareScalar passes).
template <typename T, typename V>
size_t BetweenDense(const V* vals, const uint8_t* valid, uint32_t n, T lo,
                    T hi, uint32_t* out) {
  size_t k = 0;
  if (valid == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      const T v = static_cast<T>(vals[i]);
      out[k] = i;
      k += static_cast<size_t>((v >= lo) & (v <= hi));
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      const T v = static_cast<T>(vals[i]);
      out[k] = i;
      k += static_cast<size_t>((valid[i] != 0) & (v >= lo) & (v <= hi));
    }
  }
  return k;
}

template <typename T, typename V>
size_t BetweenSelected(const V* vals, const uint8_t* valid,
                       const uint32_t* sel, size_t m, T lo, T hi,
                       uint32_t* out) {
  size_t k = 0;
  if (valid == nullptr) {
    for (size_t j = 0; j < m; ++j) {
      const uint32_t i = sel[j];
      const T v = static_cast<T>(vals[i]);
      out[k] = i;
      k += static_cast<size_t>((v >= lo) & (v <= hi));
    }
  } else {
    for (size_t j = 0; j < m; ++j) {
      const uint32_t i = sel[j];
      const T v = static_cast<T>(vals[i]);
      out[k] = i;
      k += static_cast<size_t>((valid[i] != 0) & (v >= lo) & (v <= hi));
    }
  }
  return k;
}

template <typename T, typename V>
size_t BetweenTyped(const V* vals, const uint8_t* valid, size_t n, T lo, T hi,
                    const SelectionVector* input, uint32_t* out) {
  if (input != nullptr) {
    return BetweenSelected<T>(vals, valid, input->data(), input->size(), lo,
                              hi, out);
  }
  return BetweenDense<T>(vals, valid, static_cast<uint32_t>(n), lo, hi, out);
}

}  // namespace

SelectionVector CompareScalar(const Column& col, CompareOp op,
                              const Datum& literal,
                              const SelectionVector* input) {
  SelectionVector out;
  if (literal.is_null()) return out;  // comparisons with NULL match nothing
  out.resize(input ? input->size() : col.length());
  const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
  const size_t n = col.length();
  auto numeric = [&](const auto* vals) {
    if (ComparesAsDouble(col.type(), literal.type())) {
      return CompareTyped<double>(vals, valid, n, op, literal.AsDouble(),
                                  input, out.data());
    }
    return CompareTyped<int64_t>(vals, valid, n, op, literal.AsInt64(), input,
                                 out.data());
  };
  size_t k = 0;
  switch (col.type()) {
    case TypeKind::kBool:
      k = numeric(col.bool_data().data());
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      k = numeric(col.i32_data().data());
      break;
    case TypeKind::kInt64:
      k = numeric(col.i64_data().data());
      break;
    case TypeKind::kFloat64:
      k = CompareTyped<double>(col.f64_data().data(), valid, n, op,
                               literal.AsDouble(), input, out.data());
      break;
    case TypeKind::kString:
      k = WithCompareOp(op, [&](auto opc) {
        return CompareStrings<decltype(opc)::value>(
            col, literal.string_value(), input, out.data());
      });
      break;
  }
  out.resize(k);
  return out;
}

SelectionVector Between(const Column& col, const Datum& lo, const Datum& hi,
                        const SelectionVector* input) {
  SelectionVector out;
  if (lo.is_null() || hi.is_null()) return out;  // NULL bound matches nothing
  const bool lo_double = ComparesAsDouble(col.type(), lo.type());
  if (col.type() != TypeKind::kString &&
      lo_double != ComparesAsDouble(col.type(), hi.type())) {
    // The bounds compare in different domains (an integer column against
    // 1 and 2.5): two chained passes keep each bound's own rule.
    const SelectionVector ge = CompareScalar(col, CompareOp::kGe, lo, input);
    return CompareScalar(col, CompareOp::kLe, hi, &ge);
  }
  out.resize(input ? input->size() : col.length());
  const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
  const size_t n = col.length();
  auto numeric = [&](const auto* vals) {
    if (lo_double) {
      return BetweenTyped<double>(vals, valid, n, lo.AsDouble(), hi.AsDouble(),
                                  input, out.data());
    }
    return BetweenTyped<int64_t>(vals, valid, n, lo.AsInt64(), hi.AsInt64(),
                                 input, out.data());
  };
  size_t k = 0;
  switch (col.type()) {
    case TypeKind::kBool:
      k = numeric(col.bool_data().data());
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      k = numeric(col.i32_data().data());
      break;
    case TypeKind::kInt64:
      k = numeric(col.i64_data().data());
      break;
    case TypeKind::kFloat64:
      k = BetweenTyped<double>(col.f64_data().data(), valid, n, lo.AsDouble(),
                               hi.AsDouble(), input, out.data());
      break;
    case TypeKind::kString: {
      const StringSpan strings(col);
      const std::string_view vlo = lo.string_value();
      const std::string_view vhi = hi.string_value();
      auto one = [&](uint32_t i) {
        const std::string_view v = strings[i];
        out[k] = i;
        k += static_cast<size_t>((v >= vlo) & (v <= vhi));
      };
      if (input != nullptr) {
        for (uint32_t i : *input) {
          if (valid != nullptr && valid[i] == 0) continue;
          one(i);
        }
      } else {
        for (uint32_t i = 0; i < col.length(); ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          one(i);
        }
      }
      break;
    }
  }
  out.resize(k);
  return out;
}

namespace {

// True when the row list is one contiguous run, sel[j] == sel[0] + j.
// The ends decide it for a selection; a list in any other order (a sort
// permutation, a join's repeated rows) needs the pass, which runs only
// when the ends agree.
bool OneRun(const uint32_t* sel, size_t m) {
  if (m == 0 || sel[m - 1] - sel[0] != m - 1) return false;
  bool run = true;
  POCS_VEC_LOOP
  for (size_t j = 0; j < m; ++j) run &= sel[j] - sel[0] == j;
  return run;
}

// dst[j] = src[sel[j]] for W-byte elements: one fixed-size copy per
// element, which compiles to a load and a store, or one memcpy when the
// selection is a single run.
template <size_t W>
void GatherFixed(const uint8_t* src, const uint32_t* sel, size_t m,
                 uint8_t* dst) {
  if (OneRun(sel, m)) {
    std::memcpy(dst, src + size_t{sel[0]} * W, m * W);
    return;
  }
  for (size_t j = 0; j < m; ++j) {
    std::memcpy(dst + j * W, src + size_t{sel[j]} * W, W);
  }
}

constexpr size_t kShortString = 16;

// Rebased offsets into `off` (m + 1 of them) and the selected strings
// into `chars` (char_len bytes). A short string's 16-byte copy may write
// past its own end; the strings after it overwrite those bytes, and the
// copy is never taken within 16 bytes of either buffer's end.
void GatherStrings(const Column& col, const uint32_t* sel, size_t m,
                   int32_t* off, uint8_t* chars, size_t char_len) {
  const int32_t* soff = col.offsets().data();
  const uint8_t* schars = col.chars_buffer().data();
  const size_t schars_len = col.chars_buffer().size();
  off[0] = 0;
  if (OneRun(sel, m)) {
    const int32_t base = soff[sel[0]];
    for (size_t j = 0; j < m; ++j) off[j + 1] = soff[sel[0] + j + 1] - base;
    if (char_len > 0) std::memcpy(chars, schars + base, char_len);
    return;
  }
  size_t pos = 0;
  for (size_t j = 0; j < m; ++j) {
    const auto begin = static_cast<size_t>(soff[sel[j]]);
    const auto len = static_cast<size_t>(soff[sel[j] + 1]) - begin;
    if (len <= kShortString && begin + kShortString <= schars_len &&
        pos + kShortString <= char_len) {
      std::memcpy(chars + pos, schars + begin, kShortString);
    } else if (len > 0) {
      std::memcpy(chars + pos, schars + begin, len);
    }
    pos += len;
    off[j + 1] = static_cast<int32_t>(pos);
  }
}

// The sizes of a gather's buffers beyond its row count.
struct GatherSizes {
  size_t null_count = 0;  // selected rows that are NULL
  size_t char_len = 0;    // selected string bytes; 0 for other types
};

GatherSizes MeasureGather(const Column& col, const SelectionVector& sel) {
  const uint32_t* s = sel.data();
  const size_t m = sel.size();
  GatherSizes sizes;
  if (col.has_nulls()) {
    const uint8_t* valid = col.validity().data();
    size_t ones = 0;
    POCS_VEC_LOOP
    for (size_t j = 0; j < m; ++j) ones += valid[s[j]];
    sizes.null_count = m - ones;
  }
  if (col.type() == TypeKind::kString && m > 0) {
    const int32_t* off = col.offsets().data();
    if (OneRun(s, m)) {
      sizes.char_len = static_cast<size_t>(off[s[m - 1] + 1] - off[s[0]]);
    } else {
      POCS_VEC_LOOP
      for (size_t j = 0; j < m; ++j) {
        sizes.char_len += static_cast<size_t>(off[s[j] + 1] - off[s[j]]);
      }
    }
  }
  return sizes;
}

// The one gather kernel, into buffers sized by MeasureGather: `validity`
// m bytes (written only when null_count > 0), `values` ValuesBytes(type,
// m) bytes and `chars` char_len bytes, each aligned for its elements.
void Gather(const Column& col, const SelectionVector& sel,
            const GatherSizes& sizes, uint8_t* validity, uint8_t* values,
            uint8_t* chars) {
  const uint32_t* s = sel.data();
  const size_t m = sel.size();
  if (sizes.null_count > 0) {
    GatherFixed<1>(col.validity().data(), s, m, validity);
  }
  const uint8_t* src = col.values_buffer().data();
  switch (col.type()) {
    case TypeKind::kBool:
      GatherFixed<1>(src, s, m, values);
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      GatherFixed<4>(src, s, m, values);
      break;
    case TypeKind::kInt64:
    case TypeKind::kFloat64:
      GatherFixed<8>(src, s, m, values);
      break;
    case TypeKind::kString:
      GatherStrings(col, s, m, reinterpret_cast<int32_t*>(values), chars,
                    sizes.char_len);
      break;
  }
}

}  // namespace

std::shared_ptr<Column> Take(const Column& col, const SelectionVector& sel) {
  const size_t m = sel.size();
  const GatherSizes sizes = MeasureGather(col, sel);
  Bytes validity(sizes.null_count > 0 ? m : 0);
  Bytes values(ValuesBytes(col.type(), m));
  Bytes chars(sizes.char_len);
  Gather(col, sel, sizes, validity.data(), values.data(), chars.data());
  return std::make_shared<Column>(col.type(), m, sizes.null_count,
                                  Buffer::Adopt(std::move(validity)),
                                  Buffer::Adopt(std::move(values)),
                                  Buffer::Adopt(std::move(chars)));
}

RecordBatchPtr TakeBatch(const RecordBatch& batch, const SelectionVector& sel) {
  std::vector<ColumnPtr> cols;
  cols.reserve(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    cols.push_back(Take(*batch.column(c), sel));
  }
  return MakeBatch(batch.schema(), std::move(cols));
}

namespace {

constexpr uint64_t kRowSeed = 0x5bd1e995u;
// The word a NULL key cell contributes in place of its value bits.
constexpr uint64_t kNullWord = 0x9ae16a3b2f90404fULL;

// The row of live position j: every row of the batch, or a selection's.
struct AllRows {
  size_t operator[](size_t j) const { return j; }
};
struct SelectedRows {
  const uint32_t* sel;
  size_t operator[](size_t j) const { return sel[j]; }
};

// One typed pass per key column, h[j] = Mix64(h[j] ^ word(rows[j])): one
// mix per live key cell. The null-free case drops the validity test
// entirely.
template <typename Rows, typename Word>
void MixColumn(const uint8_t* valid, Rows rows, size_t n, uint64_t* h,
               Word&& word) {
  if (valid == nullptr) {
    for (size_t j = 0; j < n; ++j) h[j] = Mix64(h[j] ^ word(rows[j]));
  } else {
    for (size_t j = 0; j < n; ++j) {
      const size_t i = rows[j];
      h[j] = Mix64(h[j] ^ (valid[i] != 0 ? word(i) : kNullWord));
    }
  }
}

uint64_t Load64(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// kLowBytes[n] keeps the low n bytes of a word.
constexpr uint64_t kLowBytes[9] = {
    0, 0xff, 0xffff, 0xffffff, 0xffffffff, 0xffffffffffULL,
    0xffffffffffffULL, 0xffffffffffffffULL, ~uint64_t{0}};

// The word of each string of a column whose chars buffer holds at least 8
// bytes (a shorter buffer is read from a padded copy). Up to 8 bytes come
// from one masked 8-byte load that stays inside the buffer: at the
// string's start, or at the buffer's last 8 bytes when the string starts
// within them. Bytes around a string never reach its word, so a built
// column and a slice of an IPC frame hash alike. The length sits in the
// top byte, so "a" and "a\0" differ; longer strings take HashBytes.
struct StringWords {
  const int32_t* offsets;
  const char* chars;
  size_t last;  // the buffer's last 8-byte load position

  uint64_t operator()(size_t i) const {
    const auto start = static_cast<size_t>(offsets[i]);
    const auto len = static_cast<size_t>(offsets[i + 1] - offsets[i]);
    if (len == 0) return 0;  // may start just past the buffer's end
    if (len > 8) return HashBytes(chars + start, len);
    const uint64_t w = start <= last
                           ? Load64(chars + start)
                           : Load64(chars + last) >> (8 * (start - last));
    return (w & kLowBytes[len]) ^ (uint64_t{len} << 56);
  }
};

// Hashes of the n live rows of the key columns into h.
template <typename Rows>
void HashLiveRows(const std::vector<ColumnPtr>& keys, Rows rows, size_t n,
                  uint64_t* h) {
  for (const auto& key : keys) {
    const Column& col = *key;
    const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
    switch (col.type()) {
      case TypeKind::kBool: {
        const uint8_t* v = col.bool_data().data();
        MixColumn(valid, rows, n, h,
                  [v](size_t i) { return uint64_t{v[i] != 0}; });
        break;
      }
      case TypeKind::kInt32:
      case TypeKind::kDate32: {
        const int32_t* v = col.i32_data().data();
        MixColumn(valid, rows, n, h, [v](size_t i) {
          return static_cast<uint64_t>(int64_t{v[i]});
        });
        break;
      }
      case TypeKind::kInt64: {
        const int64_t* v = col.i64_data().data();
        MixColumn(valid, rows, n, h,
                  [v](size_t i) { return static_cast<uint64_t>(v[i]); });
        break;
      }
      case TypeKind::kFloat64: {
        // By bits: -0.0 and 0.0 hash apart, and so form separate groups.
        const double* v = col.f64_data().data();
        MixColumn(valid, rows, n, h, [v](size_t i) {
          uint64_t bits = 0;
          std::memcpy(&bits, &v[i], sizeof(bits));
          return bits;
        });
        break;
      }
      case TypeKind::kString: {
        const std::string_view chars = col.chars();
        char padded[8] = {};
        const char* base = chars.data();
        if (chars.size() < 8) {
          std::copy(chars.begin(), chars.end(), padded);
          base = padded;
        }
        MixColumn(valid, rows, n, h,
                  StringWords{col.offsets().data(), base,
                              std::max<size_t>(chars.size(), 8) - 8});
        break;
      }
    }
  }
}

}  // namespace

void HashRows(const std::vector<ColumnPtr>& keys, std::vector<uint64_t>* out,
              const SelectionVector* sel) {
  if (keys.empty()) {
    out->clear();
    return;
  }
  const size_t n = sel != nullptr ? sel->size() : keys[0]->length();
  out->assign(n, kRowSeed);
  if (sel != nullptr) {
    HashLiveRows(keys, SelectedRows{sel->data()}, n, out->data());
  } else {
    HashLiveRows(keys, AllRows{}, n, out->data());
  }
}

namespace {

bool CellsEqual(const Column& ca, size_t a, const Column& cb, size_t b) {
  const bool na = ca.IsNull(a);
  const bool nb = cb.IsNull(b);
  if (na || nb) return na && nb;
  switch (ca.type()) {
    case TypeKind::kBool: return ca.GetBool(a) == cb.GetBool(b);
    case TypeKind::kInt32:
    case TypeKind::kDate32: return ca.GetInt32(a) == cb.GetInt32(b);
    case TypeKind::kInt64: return ca.GetInt64(a) == cb.GetInt64(b);
    case TypeKind::kFloat64: return ca.GetFloat64(a) == cb.GetFloat64(b);
    case TypeKind::kString: return ca.GetString(a) == cb.GetString(b);
  }
  return false;
}

}  // namespace

bool RowsEqual(const std::vector<ColumnPtr>& keys, size_t a, size_t b) {
  return RowsEqual(keys, a, keys, b);
}

bool RowsEqual(const std::vector<ColumnPtr>& keys_a, size_t a,
               const std::vector<ColumnPtr>& keys_b, size_t b) {
  for (size_t k = 0; k < keys_a.size(); ++k) {
    if (!CellsEqual(*keys_a[k], a, *keys_b[k], b)) return false;
  }
  return true;
}

namespace {

// Three-way order of two non-null sort values. Floats order NaN after
// every number, as Presto does, which keeps the order strict and weak;
// -0.0 and 0.0 tie.
template <typename T>
int Order(T a, T b) {
  return static_cast<int>(b < a) - static_cast<int>(a < b);
}
int Order(double a, double b) {
  const int c = static_cast<int>(b < a) - static_cast<int>(a < b);
  if (c != 0) return c;
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}
int Order(std::string_view a, std::string_view b) {
  const int c = a.compare(b);
  return static_cast<int>(c > 0) - static_cast<int>(c < 0);
}

// One sort key resolved against its column once per sort: its buffers,
// direction, NULL placement and a comparison typed for its column, so
// comparing two rows does no column lookup or type switch.
struct ResolvedKey {
  int (*compare)(const ResolvedKey& key, uint32_t a, uint32_t b);
  const void* values;    // value buffer, or string offsets
  const char* chars;     // string bytes
  const uint8_t* valid;  // null when the column has no NULLs
  int direction;         // 1 ascending, -1 descending
  int null_sign;         // -1 NULLs first, 1 NULLs last
};

// Value i of the key's column, read as V (bool from its 0/1 byte).
template <typename V>
V KeyValue(const ResolvedKey& key, uint32_t i) {
  if constexpr (std::is_same_v<V, std::string_view>) {
    const auto* off = static_cast<const int32_t*>(key.values);
    return {key.chars + off[i], static_cast<size_t>(off[i + 1] - off[i])};
  } else if constexpr (std::is_same_v<V, bool>) {
    return static_cast<const uint8_t*>(key.values)[i] != 0;
  } else {
    return static_cast<const V*>(key.values)[i];
  }
}

// NULLs sit first or last whatever the direction; values follow Order,
// reversed when descending (so NaN leads a descending sort).
template <typename V>
int CompareKey(const ResolvedKey& key, uint32_t a, uint32_t b) {
  if (key.valid != nullptr) {
    const int na = key.valid[a] == 0 ? 1 : 0;
    const int nb = key.valid[b] == 0 ? 1 : 0;
    if ((na | nb) != 0) return (na - nb) * key.null_sign;
  }
  return key.direction * Order(KeyValue<V>(key, a), KeyValue<V>(key, b));
}

ResolvedKey Resolve(const Column& col, const SortKey& key) {
  ResolvedKey out{nullptr,
                  col.values_buffer().data(),
                  col.chars().data(),
                  col.has_nulls() ? col.validity().data() : nullptr,
                  key.ascending ? 1 : -1,
                  key.nulls_first ? -1 : 1};
  switch (col.type()) {
    case TypeKind::kBool: out.compare = CompareKey<bool>; break;
    case TypeKind::kInt32:
    case TypeKind::kDate32: out.compare = CompareKey<int32_t>; break;
    case TypeKind::kInt64: out.compare = CompareKey<int64_t>; break;
    case TypeKind::kFloat64: out.compare = CompareKey<double>; break;
    case TypeKind::kString: out.compare = CompareKey<std::string_view>; break;
  }
  return out;
}

}  // namespace

std::vector<uint32_t> SortIndices(const RecordBatch& batch,
                                  const std::vector<SortKey>& keys) {
  std::vector<ResolvedKey> resolved;
  resolved.reserve(keys.size());
  for (const SortKey& key : keys) {
    resolved.push_back(Resolve(*batch.column(key.column), key));
  }
  std::vector<uint32_t> idx(batch.num_rows());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    for (const ResolvedKey& key : resolved) {
      const int c = key.compare(key, a, b);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return idx;
}

}  // namespace pocs::columnar
