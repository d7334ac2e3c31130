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

void AppendCell(const Column& col, size_t row, std::string* out) {
  if (col.IsNull(row)) return;  // empty cell encodes NULL
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
      out->append(col.GetString(row));  // values in this repo are CSV-safe
      break;
  }
}

Status AppendParsedCell(std::string_view cell, Column* col) {
  if (cell.empty()) {
    col->AppendNull();
    return Status::OK();
  }
  switch (col->type()) {
    case TypeKind::kBool:
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
  while (pos < csv.size()) {
    size_t eol = csv.find('\n', pos);
    if (eol == std::string_view::npos) eol = csv.size();
    std::string_view line = csv.substr(pos, eol - pos);
    size_t field_start = 0;
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      size_t comma = (c + 1 < schema->num_fields())
                         ? line.find(',', field_start)
                         : line.size();
      if (comma == std::string_view::npos) {
        return Status::Corruption("csv: short row");
      }
      POCS_RETURN_NOT_OK(AppendParsedCell(
          line.substr(field_start, comma - field_start), cols[c].get()));
      field_start = comma + 1;
    }
    pos = eol + 1;
  }
  std::vector<columnar::ColumnPtr> const_cols(cols.begin(), cols.end());
  return columnar::MakeBatch(schema, std::move(const_cols));
}

}  // namespace pocs::objectstore
