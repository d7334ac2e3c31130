// Binary IPC serialization of schemas and record batches — the role Apache
// Arrow's IPC format plays in the paper: the columnar result interchange
// between OCS storage nodes and Presto workers.
//
// Layout (all little-endian, varint = LEB128):
//   stream  := magic(u32=0x41524F57 'AROW') schema batch_count:varint batch*
//              trailer
//   schema  := nfields:varint (name:str type:u8 nullable:u8)*
//   batch   := nrows:varint column*
//   column  := null_count:varint [validity bytes if null_count>0] payload
//   payload := fixed-width raw values, or offsets+chars for strings
//   trailer := checksum:u64, Checksum64 (common/checksum.h) of every
//              byte before it
// DeserializeTable verifies the trailer once, before parsing. The column
// body is also Parquet-lite's plain page body (format/encoding.h).
#pragma once

#include "columnar/batch.h"
#include "common/buffer.h"

namespace pocs::columnar::ipc {

// Serialize a single batch (with schema) to bytes.
Bytes SerializeBatch(const RecordBatch& batch);

// Serialize a table (schema + all batches).
Bytes SerializeTable(const Table& table);

// Deserialize a stream produced by either Serialize function.
Result<std::shared_ptr<Table>> DeserializeTable(ByteSpan data);
Result<RecordBatchPtr> DeserializeBatch(ByteSpan data);

// One column body (the `column` production above). ReadColumn checks
// that the buffer holds `nrows` rows before it allocates them, and leaves
// `in` just past the body.
void WriteColumn(const Column& col, BufferWriter* out);
Result<ColumnPtr> ReadColumn(TypeKind type, size_t nrows, BufferReader* in);

// Schema-only helpers used by the plan IR and metastore persistence.
void WriteSchema(const Schema& schema, BufferWriter* out);
Result<SchemaPtr> ReadSchema(BufferReader* in);

// Scalar Datum serialization, used by file statistics and the plan IR.
void WriteDatum(const Datum& d, BufferWriter* out);
Result<Datum> ReadDatum(BufferReader* in);

}  // namespace pocs::columnar::ipc
