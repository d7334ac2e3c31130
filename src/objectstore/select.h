// The S3-Select / MinIO-Select stand-in's two formats: its pruning terms
// and its ROW-ORIENTED CSV results. A Select is a Read → [Filter] →
// [Project] plan that the storage node runs with its one scan
// (ocs::ExecuteOnObject) and returns as CSV text.
//
// The operator restriction (filter + projection only, nothing else) and
// the row-format results are the two properties of S3 Select the paper's
// baseline comparison hinges on (§2.2): aggregation/top-N cannot run
// there, and results lose columnar-format efficiency. We intentionally
// reproduce both. Unlike real S3 Select we do support float64 — the
// paper notes S3 Select's lack of doubles as a flaw, not a feature.
#pragma once

#include <string>
#include <string_view>

#include "columnar/batch.h"
#include "columnar/kernels.h"
#include "columnar/types.h"
#include "common/buffer.h"
#include "format/stats.h"

namespace pocs::objectstore {

// One `column <op> literal` conjunct of a filter: the unit of chunk
// statistics pruning.
struct SelectPredicate {
  std::string column;
  columnar::CompareOp op;
  columnar::Datum literal;
};

// True if chunk statistics cannot rule out rows matching `pred`.
bool ChunkMayMatch(const format::ColumnStats& stats,
                   const SelectPredicate& pred);

// Appends `table` as a Select result payload: a header line of column
// names, one line per row, then the Checksum64 of that text as a
// little-endian u64. An unquoted empty cell is NULL; a string cell that
// is empty or holds ',', '"', '\n' or '\r' is quoted as in RFC 4180, a
// quote inside doubled.
void WriteSelectCsv(const columnar::Table& table, BufferWriter* out);

// The CSV text of a Select result payload, once its checksum matches;
// Corruption otherwise. The view points into `payload`.
Result<std::string_view> SelectCsvText(ByteSpan payload);

// Parse CSV text (as written above, without its checksum) back into a
// record batch, given the expected schema of the projected columns. Used
// by the compute-side Hive connector to turn row-format results back
// into pages. A cell its column's type cannot hold (a bool other than
// true or false, a malformed number), a row of the wrong cell count or
// an unclosed quote is Corruption.
Result<columnar::RecordBatchPtr> ParseSelectCsv(
    std::string_view csv, const columnar::SchemaPtr& schema);

}  // namespace pocs::objectstore
