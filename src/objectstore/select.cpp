#include "objectstore/select.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/checksum.h"

namespace pocs::objectstore {

using columnar::Column;
using columnar::CompareOp;
using columnar::Datum;
using columnar::RecordBatchPtr;
using columnar::TypeKind;

bool ChunkMayMatch(const format::ColumnStats& stats,
                   const SelectPredicate& pred) {
  // No stats or all-null chunk: only a match if op could match... a null
  // never matches a comparison, so an all-null chunk can be skipped.
  if (stats.min.is_null() || stats.max.is_null()) return false;
  const Datum& lit = pred.literal;
  if (lit.is_null()) return false;
  switch (pred.op) {
    case CompareOp::kEq:
      return stats.min.Compare(lit) <= 0 && stats.max.Compare(lit) >= 0;
    case CompareOp::kNe:
      // Only prunable when min == max == literal.
      return !(stats.min.Compare(lit) == 0 && stats.max.Compare(lit) == 0);
    case CompareOp::kLt: return stats.min.Compare(lit) < 0;
    case CompareOp::kLe: return stats.min.Compare(lit) <= 0;
    case CompareOp::kGt: return stats.max.Compare(lit) > 0;
    case CompareOp::kGe: return stats.max.Compare(lit) >= 0;
  }
  return true;
}

namespace {

// A string cell is quoted (RFC 4180) when it is empty, so that it is not
// read back as NULL, or holds a delimiter or a quote; a quote inside is
// doubled.
void AppendString(std::string_view value, std::string* out) {
  if (!value.empty() && value.find_first_of(",\"\n\r") == std::string::npos) {
    out->append(value);
    return;
  }
  out->push_back('"');
  for (char ch : value) {
    if (ch == '"') out->push_back('"');
    out->push_back(ch);
  }
  out->push_back('"');
}

void AppendCell(const Column& col, size_t row, std::string* out) {
  if (col.IsNull(row)) return;  // an unquoted empty cell encodes NULL
  char buf[40];
  switch (col.type()) {
    case TypeKind::kBool:
      out->append(col.GetBool(row) ? "true" : "false");
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      std::snprintf(buf, sizeof(buf), "%d", col.GetInt32(row));
      out->append(buf);
      break;
    case TypeKind::kInt64:
      std::snprintf(buf, sizeof(buf), "%" PRId64, col.GetInt64(row));
      out->append(buf);
      break;
    case TypeKind::kFloat64:
      // %.17g preserves the value exactly through the text roundtrip.
      std::snprintf(buf, sizeof(buf), "%.17g", col.GetFloat64(row));
      out->append(buf);
      break;
    case TypeKind::kString:
      AppendString(col.GetString(row), out);
      break;
  }
}

// Reads the cell at `*pos` of `csv` and moves `*pos` past the ',' or '\n'
// that ends it; `*row_end` tells whether the row ended there ('\n' or the
// end of the text). A quoted cell comes back in `*unquoted`, without its
// quotes and with each doubled quote halved.
Status ReadCell(std::string_view csv, size_t* pos, std::string* unquoted,
                std::string_view* cell, bool* quoted, bool* row_end) {
  size_t p = *pos;
  *quoted = p < csv.size() && csv[p] == '"';
  if (*quoted) {
    unquoted->clear();
    for (++p;; ++p) {
      if (p == csv.size()) return Status::Corruption("csv: unclosed quote");
      if (csv[p] == '"') {
        if (p + 1 == csv.size() || csv[p + 1] != '"') break;
        ++p;  // a doubled quote is one quote
      }
      unquoted->push_back(csv[p]);
    }
    ++p;  // past the closing quote
    if (p < csv.size() && csv[p] != ',' && csv[p] != '\n') {
      return Status::Corruption("csv: text after a closing quote");
    }
    *cell = *unquoted;
  } else {
    const size_t end = std::min(csv.find_first_of(",\n", p), csv.size());
    *cell = csv.substr(p, end - p);
    p = end;
  }
  *row_end = p == csv.size() || csv[p] == '\n';
  *pos = p + 1;
  return Status::OK();
}

Status AppendParsedCell(std::string_view cell, bool quoted, Column* col) {
  if (cell.empty() && !quoted) {
    col->AppendNull();
    return Status::OK();
  }
  switch (col->type()) {
    case TypeKind::kBool:
      if (cell != "true" && cell != "false") {
        return Status::Corruption("csv: bad bool '" + std::string(cell) + "'");
      }
      col->AppendBool(cell == "true");
      return Status::OK();
    case TypeKind::kInt32:
    case TypeKind::kDate32: {
      int32_t v;
      auto [p, ec] = std::from_chars(cell.begin(), cell.end(), v);
      if (ec != std::errc() || p != cell.end()) {
        return Status::Corruption("csv: bad int32 '" + std::string(cell) + "'");
      }
      col->AppendInt32(v);
      return Status::OK();
    }
    case TypeKind::kInt64: {
      int64_t v;
      auto [p, ec] = std::from_chars(cell.begin(), cell.end(), v);
      if (ec != std::errc() || p != cell.end()) {
        return Status::Corruption("csv: bad int64 '" + std::string(cell) + "'");
      }
      col->AppendInt64(v);
      return Status::OK();
    }
    case TypeKind::kFloat64: {
      // std::from_chars<double> is available with GCC >= 11.
      double v;
      auto [p, ec] = std::from_chars(cell.begin(), cell.end(), v);
      if (ec != std::errc() || p != cell.end()) {
        return Status::Corruption("csv: bad float '" + std::string(cell) + "'");
      }
      col->AppendFloat64(v);
      return Status::OK();
    }
    case TypeKind::kString:
      col->AppendString(cell);
      return Status::OK();
  }
  return Status::Internal("csv: unreachable");
}

}  // namespace

void WriteSelectCsv(const columnar::Table& table, BufferWriter* out) {
  std::string text;
  const columnar::Schema& schema = *table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c) text += ',';
    text += schema.field(c).name;
  }
  text += '\n';
  for (const RecordBatchPtr& batch : table.batches()) {
    for (size_t row = 0; row < batch->num_rows(); ++row) {
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        if (c) text += ',';
        AppendCell(*batch->column(c), row, &text);
      }
      text += '\n';
    }
  }
  const ByteSpan bytes(reinterpret_cast<const uint8_t*>(text.data()),
                       text.size());
  out->WriteBytes(bytes);
  out->WriteLE<uint64_t>(Checksum64(bytes));
}

Result<std::string_view> SelectCsvText(ByteSpan payload) {
  if (payload.size() < sizeof(uint64_t)) {
    return Status::Corruption("csv: payload shorter than its checksum");
  }
  const ByteSpan text = payload.first(payload.size() - sizeof(uint64_t));
  uint64_t checksum;
  std::memcpy(&checksum, text.data() + text.size(), sizeof(checksum));
  if (Checksum64(text) != checksum) {
    return Status::Corruption("csv: checksum mismatch");
  }
  return std::string_view(reinterpret_cast<const char*>(text.data()),
                          text.size());
}

Result<RecordBatchPtr> ParseSelectCsv(std::string_view csv,
                                      const columnar::SchemaPtr& schema) {
  std::vector<std::shared_ptr<Column>> cols;
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    cols.push_back(columnar::MakeColumn(schema->field(c).type));
  }
  size_t pos = csv.find('\n');
  if (pos == std::string_view::npos) {
    return Status::Corruption("csv: no header");
  }
  // Header sanity: column count must match.
  {
    std::string_view header = csv.substr(0, pos);
    size_t commas = std::count(header.begin(), header.end(), ',');
    if (!header.empty() && commas + 1 != schema->num_fields()) {
      return Status::Corruption("csv: header column count mismatch");
    }
  }
  ++pos;
  std::string unquoted;
  while (!cols.empty() && pos < csv.size()) {
    for (size_t c = 0; c < cols.size(); ++c) {
      std::string_view cell;
      bool quoted = false;
      bool row_end = false;
      POCS_RETURN_NOT_OK(
          ReadCell(csv, &pos, &unquoted, &cell, &quoted, &row_end));
      if (row_end != (c + 1 == cols.size())) {
        return Status::Corruption(row_end ? "csv: short row" : "csv: long row");
      }
      POCS_RETURN_NOT_OK(AppendParsedCell(cell, quoted, cols[c].get()));
    }
  }
  std::vector<columnar::ColumnPtr> const_cols(cols.begin(), cols.end());
  return columnar::MakeBatch(schema, std::move(const_cols));
}

}  // namespace pocs::objectstore
