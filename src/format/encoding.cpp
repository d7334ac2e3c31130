#include "format/encoding.h"

#include <map>

#include "columnar/ipc.h"

namespace pocs::format {

using columnar::Column;
using columnar::ColumnPtr;
using columnar::MakeColumn;
using columnar::TypeKind;

std::optional<Bytes> DictionaryEncodeString(const Column& col) {
  if (col.type() != TypeKind::kString) return std::nullopt;
  // Build the dictionary (insertion order = code order).
  std::map<std::string_view, uint8_t> dict;
  std::vector<std::string_view> values;
  for (size_t i = 0; i < col.length(); ++i) {
    if (col.IsNull(i)) continue;
    std::string_view v = col.GetString(i);
    if (dict.contains(v)) continue;
    if (values.size() >= 255) return std::nullopt;  // too many distincts
    dict.emplace(v, static_cast<uint8_t>(values.size()));
    values.push_back(v);
  }
  BufferWriter out(col.length() + 64);
  out.WriteU8(static_cast<uint8_t>(PageEncoding::kDictionary));
  out.WriteVarint(values.size());
  for (std::string_view v : values) out.WriteString(v);
  out.WriteVarint(col.length());
  out.WriteVarint(col.null_count());
  if (col.null_count() > 0) {
    out.WriteBytes(col.validity().data(), col.validity().size());
  }
  for (size_t i = 0; i < col.length(); ++i) {
    out.WriteU8(col.IsNull(i) ? 0 : dict.at(col.GetString(i)));
  }
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

columnar::ColumnPtr MaterializeDictionary(const DictionaryPage& page) {
  const size_t n = page.num_rows();
  auto col = MakeColumn(TypeKind::kString);
  std::vector<int32_t>& off = col->mutable_offsets();
  off.resize(n + 1);
  off[0] = 0;
  std::string& chars = col->mutable_chars();
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (page.validity.empty() || page.validity[i] != 0) {
      total += page.values[page.codes[i]].size();
    }
  }
  chars.reserve(total);
  int32_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (page.validity.empty() || page.validity[i] != 0) {
      const std::string& v = page.values[page.codes[i]];
      chars.append(v);
      pos += static_cast<int32_t>(v.size());
    }
    off[i + 1] = pos;
  }
  if (page.null_count > 0) col->mutable_validity() = page.validity;
  col->FinishDeserialized(n, page.null_count);
  return col;
}

columnar::ColumnPtr MaterializeDictionarySelected(
    const DictionaryPage& page, const columnar::SelectionVector& sel) {
  const size_t n = page.num_rows();
  auto col = MakeColumn(TypeKind::kString);
  std::vector<int32_t>& off = col->mutable_offsets();
  off.resize(n + 1);
  off[0] = 0;
  std::string& chars = col->mutable_chars();
  size_t s = 0;
  int32_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (s < sel.size() && sel[s] == i) {
      ++s;
      if (page.validity.empty() || page.validity[i] != 0) {
        const std::string& v = page.values[page.codes[i]];
        chars.append(v);
        pos += static_cast<int32_t>(v.size());
      }
    }
    off[i + 1] = pos;
  }
  if (page.null_count > 0) col->mutable_validity() = page.validity;
  col->FinishDeserialized(n, page.null_count);
  return col;
}

Result<ColumnPtr> DecodePage(ByteSpan payload, const columnar::Field& field,
                             size_t expected_rows) {
  BufferReader in(payload);
  POCS_ASSIGN_OR_RETURN(uint8_t enc, in.ReadU8());
  if (enc == static_cast<uint8_t>(PageEncoding::kPlain)) {
    POCS_ASSIGN_OR_RETURN(ColumnPtr column,
                          columnar::ipc::ReadColumn(field.type, expected_rows,
                                                    &in));
    if (!in.exhausted()) return Status::Corruption("page: trailing bytes");
    return column;
  }
  POCS_ASSIGN_OR_RETURN(std::optional<DictionaryPage> page,
                        DecodeDictionaryPage(payload, field, expected_rows));
  if (!page) return Status::Corruption("page: unknown encoding");
  return MaterializeDictionary(*page);
}

}  // namespace pocs::format
