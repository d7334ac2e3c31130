// Data-page encodings for Parquet-lite chunks. Mirrors Parquet's two
// workhorse encodings:
//   kPlain      — the raw column body: null count, validity and values
//                 (offsets + chars for strings), each buffer 8-aligned
//                 from the page's start, written and read by the IPC
//                 stream's own ipc::WriteColumn/ReadColumn pair;
//   kDictionary — low-cardinality string columns stored as a distinct-
//                 value dictionary plus one code byte per row (chosen
//                 automatically when it is smaller).
// The encoding byte leads the (pre-compression) chunk payload, so codecs
// compress the encoded form — dictionary + codec compose, as in Parquet.
// Pages carry no magic or checksum of their own, and a plain page no row
// count: the footer supplies the row count and guards each compressed
// chunk with a checksum (format/parquet_lite.h). Decoders reject a row
// count the page bytes cannot hold before allocating, and reject
// trailing bytes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "columnar/column.h"
#include "columnar/kernels.h"
#include "common/buffer.h"

namespace pocs::format {

enum class PageEncoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,
};

// A dictionary page decoded to its encoded (pre-materialization) form:
// the distinct values plus one code byte per row. Predicates over the
// column can be translated into the code domain — evaluated once per
// distinct value instead of once per row — and rows filtered on the raw
// code array, so only surviving rows ever materialize string bytes
// (late materialization, DESIGN.md §15).
struct DictionaryPage {
  std::vector<std::string> values;  // distinct values, code order
  std::vector<uint8_t> codes;       // one per row (0 on null rows)
  std::vector<uint8_t> validity;    // empty = all valid
  size_t null_count = 0;
  size_t num_rows() const { return codes.size(); }
};

// Decode a page produced by EncodePage into its dictionary form, or
// nullopt when the page is plain-encoded (caller falls back to
// DecodePage). Codes of non-null rows are validated against the
// dictionary size, and validity bytes must be 0 or 1 and agree with the
// null count.
Result<std::optional<DictionaryPage>> DecodeDictionaryPage(
    ByteSpan payload, const columnar::Field& field, size_t expected_rows);

// Translate `value <op> literal` into the code domain: one compare per
// distinct value. The returned table has 256 entries so a code byte can
// index it unchecked; entries past the dictionary are zero. A NULL
// literal matches nothing (all zeros).
std::vector<uint8_t> TranslateDictPredicate(const DictionaryPage& page,
                                            columnar::CompareOp op,
                                            const columnar::Datum& literal);

// Rows (restricted to `input` if non-null) whose code passes the match
// table. Null rows never match.
columnar::SelectionVector FilterDictCodes(
    const DictionaryPage& page, const std::vector<uint8_t>& match,
    const columnar::SelectionVector* input = nullptr);

// Materialize the full string column; bit-identical to DecodePage over
// the same page bytes.
columnar::ColumnPtr MaterializeDictionary(const DictionaryPage& page);

// Late materialization: only rows in `sel` (ascending) get their real
// string bytes; all other rows decode to empty placeholders. Validity is
// preserved verbatim, so null semantics are unchanged. Callers must
// attach `sel` to any batch built from the result — placeholder rows
// carry no data and may only be observed under an intersecting selection.
columnar::ColumnPtr MaterializeDictionarySelected(
    const DictionaryPage& page, const columnar::SelectionVector& sel);

// Encode a single-column page: picks the smaller of plain and (for
// eligible string columns) dictionary encoding. The returned buffer is
// self-describing (leading encoding byte).
Bytes EncodePage(const columnar::Column& col,
                 const columnar::Field& field);

// Decode a page produced by EncodePage. A plain page decodes to slices of
// `payload` (copied first only if it does not start 8-aligned); the span
// overload copies a plain page once into a buffer of its own.
Result<columnar::ColumnPtr> DecodePage(const Buffer& payload,
                                       const columnar::Field& field,
                                       size_t expected_rows);
Result<columnar::ColumnPtr> DecodePage(ByteSpan payload,
                                       const columnar::Field& field,
                                       size_t expected_rows);

// Exposed for tests: dictionary-encode a string column, or nullopt when
// ineligible (non-string, >255 distinct values).
std::optional<Bytes> DictionaryEncodeString(const columnar::Column& col);

}  // namespace pocs::format
