// Binary IPC serialization of schemas and record batches — the role Apache
// Arrow's IPC format plays in the paper: the columnar result interchange
// between OCS storage nodes and Presto workers.
//
// Layout (all little-endian, varint = LEB128):
//   stream  := magic(u32=0x41524F57 'AROW') schema batch_count:varint pad
//              batch* trailer
//   schema  := nfields:varint (name:str type:u8 nullable:u8)*
//   batch   := nrows:varint column*
//   column  := null_count:varint [char_len:varint, strings only]
//              (pad buffer)* pad
//   buffer  := in order: validity (nrows bytes, each 0 or 1; only if
//              null_count > 0), the values (nrows fixed-width values, or
//              nrows+1 int32 string offsets), and chars (char_len bytes;
//              strings only)
//   pad     := zero bytes up to the next 8-byte boundary of the stream
//   trailer := checksum:u64, Checksum64 (common/checksum.h) of every
//              byte before it; the last batch ends where it starts
// Since every column also ends on a boundary, a column's padding depends
// on it alone, not on the columns before it.
// A stream starts 8-aligned, so every buffer is aligned for its element
// type and a decoded column is a set of slices of the stream's bytes.
// DeserializeTable verifies the trailer once, before parsing. The column
// body is also Parquet-lite's plain page body (format/encoding.h), where
// the padding counts from the page's start.
#pragma once

#include "columnar/batch.h"
#include "common/buffer.h"

namespace pocs::columnar::ipc {

// Serialize a single batch (with schema) to bytes.
Bytes SerializeBatch(const RecordBatch& batch);

// Serialize a table (schema + all batches).
Bytes SerializeTable(const Table& table);

// Append the stream of a table to `out`, whose size must be a multiple
// of 8, and a bound on the bytes it appends (for reserving them).
void WriteTable(const Table& table, BufferWriter* out);
size_t MaxStreamBytes(const Table& table);

// Deserialize a stream produced by any of the writers above. The Buffer
// overload checks the trailer and slices every column out of `stream`
// (copying it first only if it does not start 8-aligned); the span
// overloads copy the stream once into a buffer of their own.
Result<std::shared_ptr<Table>> DeserializeTable(const Buffer& stream);
Result<std::shared_ptr<Table>> DeserializeTable(ByteSpan data);
Result<RecordBatchPtr> DeserializeBatch(ByteSpan data);

// One column body (the `column` production above). ReadColumn reads it
// from `in`, a reader over the bytes of `data` that starts 8-aligned, as
// slices of `data`. It checks that the buffer holds `nrows` rows before
// it slices them, that validity bytes are 0 or 1 and agree with the
// null count, and that string offsets are monotone within the chars; it
// leaves `in` just past the body.
void WriteColumn(const Column& col, BufferWriter* out);
Result<ColumnPtr> ReadColumn(TypeKind type, size_t nrows, const Buffer& data,
                             BufferReader* in);

// Schema-only helpers used by the plan IR and metastore persistence.
void WriteSchema(const Schema& schema, BufferWriter* out);
Result<SchemaPtr> ReadSchema(BufferReader* in);

// Scalar Datum serialization, used by file statistics and the plan IR.
void WriteDatum(const Datum& d, BufferWriter* out);
Result<Datum> ReadDatum(BufferReader* in);

}  // namespace pocs::columnar::ipc
