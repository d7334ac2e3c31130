#include "objectstore/select.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/metrics.h"

namespace pocs::objectstore {

using columnar::Column;
using columnar::CompareOp;
using columnar::Datum;
using columnar::RecordBatchPtr;
using columnar::SelectionVector;
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

Result<SelectResponse> ExecuteSelect(const ObjectStore& store,
                                     const SelectRequest& request) {
  POCS_ASSIGN_OR_RETURN(ObjectData object,
                        store.Get(request.bucket, request.key));
  POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(object));
  const auto& schema = reader->schema();

  // Resolve projected columns (empty = all).
  std::vector<int> proj;
  if (request.columns.empty()) {
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      proj.push_back(static_cast<int>(c));
    }
  } else {
    for (const std::string& name : request.columns) {
      int idx = schema->FieldIndex(name);
      if (idx < 0) return Status::InvalidArgument("no column " + name);
      proj.push_back(idx);
    }
  }
  // Resolve predicate columns.
  std::vector<int> pred_cols;
  for (const SelectPredicate& pred : request.predicates) {
    int idx = schema->FieldIndex(pred.column);
    if (idx < 0) return Status::InvalidArgument("no column " + pred.column);
    pred_cols.push_back(idx);
  }
  // Columns that must be decoded: projection ∪ predicates.
  std::vector<int> read_cols = proj;
  for (int c : pred_cols) {
    if (std::find(read_cols.begin(), read_cols.end(), c) == read_cols.end()) {
      read_cols.push_back(c);
    }
  }

  SelectResponse response;
  response.stats.groups_total = reader->num_row_groups();

  // Header line.
  for (size_t i = 0; i < proj.size(); ++i) {
    if (i) response.csv += ',';
    response.csv += schema->field(proj[i]).name;
  }
  response.csv += '\n';

  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    // Statistics-based pruning before any decoding.
    bool may_match = true;
    for (size_t p = 0; p < request.predicates.size(); ++p) {
      const auto& stats = reader->meta().row_groups[g].chunks[pred_cols[p]].stats;
      if (!ChunkMayMatch(stats, request.predicates[p])) {
        may_match = false;
        break;
      }
    }
    if (!may_match) {
      ++response.stats.groups_skipped;
      continue;
    }
    response.stats.object_bytes_read += reader->ChunkBytes(g, read_cols);
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch, reader->ReadRowGroup(g, read_cols));
    response.stats.rows_scanned += batch->num_rows();

    // Conjunctive predicate evaluation via chained selection vectors.
    SelectionVector sel;
    bool have_sel = false;
    for (const SelectPredicate& pred : request.predicates) {
      auto col = batch->ColumnByName(pred.column);
      sel = CompareScalar(*col, pred.op, pred.literal,
                          have_sel ? &sel : nullptr);
      have_sel = true;
      if (sel.empty()) break;
    }
    if (!have_sel) {
      sel.resize(batch->num_rows());
      for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    }
    response.stats.rows_returned += sel.size();

    // Emit projected cells in row order.
    std::vector<const Column*> out_cols;
    for (int c : proj) {
      out_cols.push_back(batch->ColumnByName(schema->field(c).name).get());
    }
    for (uint32_t row : sel) {
      for (size_t i = 0; i < out_cols.size(); ++i) {
        if (i) response.csv += ',';
        AppendCell(*out_cols[i], row, &response.csv);
      }
      response.csv += '\n';
    }
  }

  {
    auto& reg = metrics::Registry::Default();
    static auto& requests = reg.GetCounter("select.requests");
    static auto& rows_scanned = reg.GetCounter("select.rows_scanned");
    static auto& rows_returned = reg.GetCounter("select.rows_returned");
    static auto& skipped = reg.GetCounter("select.row_groups_skipped");
    static auto& media = reg.GetCounter("select.object_bytes_read");
    requests.Increment();
    rows_scanned.Add(response.stats.rows_scanned);
    rows_returned.Add(response.stats.rows_returned);
    skipped.Add(response.stats.groups_skipped);
    media.Add(response.stats.object_bytes_read);
  }
  return response;
}

Result<RecordBatchPtr> ParseSelectCsv(const std::string& csv,
                                      const columnar::SchemaPtr& schema) {
  std::vector<std::shared_ptr<Column>> cols;
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    cols.push_back(columnar::MakeColumn(schema->field(c).type));
  }
  size_t pos = csv.find('\n');
  if (pos == std::string::npos) return Status::Corruption("csv: no header");
  // Header sanity: column count must match.
  {
    std::string_view header(csv.data(), pos);
    size_t commas = std::count(header.begin(), header.end(), ',');
    if (!header.empty() && commas + 1 != schema->num_fields()) {
      return Status::Corruption("csv: header column count mismatch");
    }
  }
  ++pos;
  while (pos < csv.size()) {
    size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    std::string_view line(csv.data() + pos, eol - pos);
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
