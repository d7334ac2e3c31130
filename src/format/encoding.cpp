#include "format/encoding.h"

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "columnar/ipc.h"
#include "common/hash.h"

namespace pocs::format {

using columnar::Column;
using columnar::ColumnPtr;
using columnar::MakeColumn;
using columnar::TypeKind;

std::optional<Bytes> DictionaryEncodeString(const Column& col) {
  if (col.type() != TypeKind::kString) return std::nullopt;
  const size_t n = col.length();
  const int32_t* off = col.offsets().data();
  const char* chars = col.chars().data();
  const std::span<const uint8_t> validity = col.validity();
  const uint8_t* valid = validity.empty() ? nullptr : validity.data();
  // Each row's code, in first-appearance order; null rows keep code 0.
  // The values are found through an open-addressing table of 512 slots,
  // at most half full at 255 values, each holding its value's code + 1
  // (0 when empty).
  constexpr size_t kSlots = 512;
  std::array<uint8_t, kSlots> slots{};
  std::vector<std::string_view> values;
  std::vector<uint8_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    const std::string_view v(chars + off[i],
                             static_cast<size_t>(off[i + 1] - off[i]));
    size_t s = HashString(v) & (kSlots - 1);
    while (slots[s] != 0 && values[slots[s] - 1] != v) {
      s = (s + 1) & (kSlots - 1);
    }
    if (slots[s] == 0) {
      if (values.size() >= 255) return std::nullopt;  // too many distincts
      values.push_back(v);
      slots[s] = static_cast<uint8_t>(values.size());
    }
    codes[i] = slots[s] - 1;
  }
  BufferWriter out(n + 64);
  out.WriteU8(static_cast<uint8_t>(PageEncoding::kDictionary));
  out.WriteVarint(values.size());
  for (std::string_view v : values) out.WriteString(v);
  out.WriteVarint(n);
  out.WriteVarint(col.null_count());
  if (col.null_count() > 0) out.WriteBytes(validity.data(), validity.size());
  out.WriteBytes(codes.data(), codes.size());
  return std::move(out).Take();
}

Bytes EncodePage(const Column& col, const columnar::Field& field) {
  POCS_DCHECK(col.type() == field.type);
  BufferWriter plain(col.ByteSize() + 16);
  plain.WriteU8(static_cast<uint8_t>(PageEncoding::kPlain));
  columnar::ipc::WriteColumn(col, &plain);
  Bytes plain_bytes = std::move(plain).Take();

  if (auto dictionary = DictionaryEncodeString(col);
      dictionary && dictionary->size() < plain_bytes.size()) {
    return std::move(*dictionary);
  }
  return plain_bytes;
}

Result<std::optional<DictionaryPage>> DecodeDictionaryPage(
    ByteSpan payload, const columnar::Field& field, size_t expected_rows) {
  BufferReader in(payload);
  POCS_ASSIGN_OR_RETURN(uint8_t enc, in.ReadU8());
  if (enc == static_cast<uint8_t>(PageEncoding::kPlain)) {
    return std::optional<DictionaryPage>{};
  }
  if (enc != static_cast<uint8_t>(PageEncoding::kDictionary)) {
    return Status::Corruption("page: unknown encoding");
  }
  if (field.type != TypeKind::kString) {
    return Status::Corruption("page: dictionary on non-string column");
  }
  DictionaryPage page;
  POCS_ASSIGN_OR_RETURN(uint64_t n_dict, in.ReadVarint());
  if (n_dict > 255) return Status::Corruption("page: dictionary too large");
  page.values.reserve(n_dict);
  for (uint64_t i = 0; i < n_dict; ++i) {
    POCS_ASSIGN_OR_RETURN(std::string v, in.ReadString());
    page.values.push_back(std::move(v));
  }
  POCS_ASSIGN_OR_RETURN(uint64_t n_rows, in.ReadVarint());
  if (n_rows != expected_rows) {
    return Status::Corruption("page: dictionary row count mismatch");
  }
  POCS_ASSIGN_OR_RETURN(uint64_t null_count, in.ReadVarint());
  if (null_count > n_rows) return Status::Corruption("page: bad nulls");
  // The row count comes from the footer; check the page holds that many
  // code (and validity) bytes before allocating them.
  if (n_rows > in.remaining() / (null_count > 0 ? 2 : 1)) {
    return Status::Corruption("page: row count exceeds page bytes");
  }
  page.null_count = null_count;
  if (null_count > 0) {
    page.validity.resize(n_rows);
    POCS_RETURN_NOT_OK(in.ReadBytes(page.validity.data(), n_rows));
  }
  page.codes.resize(n_rows);
  POCS_RETURN_NOT_OK(in.ReadBytes(page.codes.data(), n_rows));
  if (!in.exhausted()) return Status::Corruption("page: trailing bytes");
  if (null_count > 0) {
    // The code-domain filter masks with these bytes and materialization
    // tests them, so both must read the same rows as null.
    POCS_RETURN_NOT_OK(columnar::CheckValidity(page.validity, null_count));
  }
  for (uint64_t i = 0; i < n_rows; ++i) {
    if (!page.validity.empty() && page.validity[i] == 0) continue;
    if (page.codes[i] >= page.values.size()) {
      return Status::Corruption("page: dictionary code out of range");
    }
  }
  return std::optional<DictionaryPage>(std::move(page));
}

std::vector<uint8_t> TranslateDictPredicate(const DictionaryPage& page,
                                            columnar::CompareOp op,
                                            const columnar::Datum& literal) {
  std::vector<uint8_t> match(256, 0);
  if (literal.is_null()) return match;  // NULL matches nothing
  const std::string& lit = literal.string_value();
  for (size_t c = 0; c < page.values.size(); ++c) {
    const std::string& v = page.values[c];
    bool hit = false;
    switch (op) {
      case columnar::CompareOp::kEq: hit = v == lit; break;
      case columnar::CompareOp::kNe: hit = v != lit; break;
      case columnar::CompareOp::kLt: hit = v < lit; break;
      case columnar::CompareOp::kLe: hit = v <= lit; break;
      case columnar::CompareOp::kGt: hit = v > lit; break;
      case columnar::CompareOp::kGe: hit = v >= lit; break;
    }
    match[c] = hit ? 1 : 0;
  }
  return match;
}

columnar::SelectionVector FilterDictCodes(
    const DictionaryPage& page, const std::vector<uint8_t>& match,
    const columnar::SelectionVector* input) {
  POCS_CHECK_EQ(match.size(), size_t{256});
  const uint8_t* codes = page.codes.data();
  const uint8_t* valid = page.validity.empty() ? nullptr
                                               : page.validity.data();
  const uint8_t* m = match.data();
  columnar::SelectionVector out;
  out.resize(input ? input->size() : page.codes.size());
  size_t k = 0;
  if (input != nullptr) {
    if (valid == nullptr) {
      for (uint32_t i : *input) {
        out[k] = i;
        k += static_cast<size_t>(m[codes[i]]);
      }
    } else {
      for (uint32_t i : *input) {
        out[k] = i;
        k += static_cast<size_t>(m[codes[i]] & valid[i]);
      }
    }
  } else {
    const uint32_t n = static_cast<uint32_t>(page.codes.size());
    if (valid == nullptr) {
      for (uint32_t i = 0; i < n; ++i) {
        out[k] = i;
        k += static_cast<size_t>(m[codes[i]]);
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        out[k] = i;
        k += static_cast<size_t>(m[codes[i]] & valid[i]);
      }
    }
  }
  out.resize(k);
  return out;
}

namespace {

// A string column of the page's rows; only the rows of `sel` (ascending;
// every row when null) get their values. Validity is kept verbatim.
ColumnPtr Materialize(const DictionaryPage& page,
                      const columnar::SelectionVector* sel) {
  const size_t n = page.num_rows();
  // Calls f(code) for each row that gets its value, f(-1) for the others.
  auto for_each_row = [&](auto&& f) {
    size_t s = 0;
    for (size_t i = 0; i < n; ++i) {
      bool keep = sel == nullptr;
      if (!keep && s < sel->size() && (*sel)[s] == i) {
        ++s;
        keep = true;
      }
      const bool valid = page.validity.empty() || page.validity[i] != 0;
      f(keep && valid ? page.codes[i] : -1);
    }
  };
  size_t total = 0;
  for_each_row([&](int code) {
    if (code >= 0) total += page.values[code].size();
  });
  std::vector<int32_t> off(n + 1);
  std::string chars;
  chars.reserve(total);
  size_t i = 0;
  for_each_row([&](int code) {
    if (code >= 0) chars.append(page.values[code]);
    off[++i] = static_cast<int32_t>(chars.size());
  });
  return std::make_shared<Column>(TypeKind::kString, n, page.null_count,
                                  Buffer::Adopt(page.validity),
                                  Buffer::Adopt(std::move(off)),
                                  Buffer::Adopt(std::move(chars)));
}

}  // namespace

columnar::ColumnPtr MaterializeDictionary(const DictionaryPage& page) {
  return Materialize(page, nullptr);
}

columnar::ColumnPtr MaterializeDictionarySelected(
    const DictionaryPage& page, const columnar::SelectionVector& sel) {
  return Materialize(page, &sel);
}

namespace {

bool IsPlain(ByteSpan payload) {
  return !payload.empty() &&
         payload[0] == static_cast<uint8_t>(PageEncoding::kPlain);
}

Result<ColumnPtr> DecodeDictionary(ByteSpan payload,
                                   const columnar::Field& field,
                                   size_t expected_rows) {
  POCS_ASSIGN_OR_RETURN(std::optional<DictionaryPage> page,
                        DecodeDictionaryPage(payload, field, expected_rows));
  if (!page) return Status::Corruption("page: unknown encoding");
  return MaterializeDictionary(*page);
}

}  // namespace

Result<ColumnPtr> DecodePage(const Buffer& payload,
                             const columnar::Field& field,
                             size_t expected_rows) {
  if (!IsPlain(payload.span())) {
    return DecodeDictionary(payload.span(), field, expected_rows);
  }
  // A plain page is sliced, so its buffers must keep their alignment.
  if (reinterpret_cast<uintptr_t>(payload.data()) % 8 != 0) {
    return DecodePage(Buffer::Copy(payload.span()), field, expected_rows);
  }
  BufferReader in(payload.span());
  POCS_RETURN_NOT_OK(in.Skip(1));
  POCS_ASSIGN_OR_RETURN(
      ColumnPtr column,
      columnar::ipc::ReadColumn(field.type, expected_rows, payload, &in));
  if (!in.exhausted()) return Status::Corruption("page: trailing bytes");
  return column;
}

Result<ColumnPtr> DecodePage(ByteSpan payload, const columnar::Field& field,
                             size_t expected_rows) {
  if (IsPlain(payload)) {
    return DecodePage(Buffer::Copy(payload), field, expected_rows);
  }
  return DecodeDictionary(payload, field, expected_rows);
}

}  // namespace pocs::format
