#include "columnar/ipc.h"

#include "common/checksum.h"

namespace pocs::columnar::ipc {

void WriteColumn(const Column& col, BufferWriter* out) {
  out->WriteVarint(col.null_count());
  if (col.null_count() > 0) {
    out->WriteBytes(col.validity().data(), col.validity().size());
  }
  switch (col.type()) {
    case TypeKind::kBool:
      out->WriteBytes(col.bool_data().data(), col.bool_data().size());
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      out->WriteBytes(col.i32_data().data(), col.i32_data().size() * 4);
      break;
    case TypeKind::kInt64:
      out->WriteBytes(col.i64_data().data(), col.i64_data().size() * 8);
      break;
    case TypeKind::kFloat64:
      out->WriteBytes(col.f64_data().data(), col.f64_data().size() * 8);
      break;
    case TypeKind::kString:
      out->WriteBytes(col.offsets().data(), col.offsets().size() * 4);
      out->WriteVarint(col.chars().size());
      out->WriteBytes(col.chars().data(), col.chars().size());
      break;
  }
}

Result<ColumnPtr> ReadColumn(TypeKind type, size_t nrows, BufferReader* in) {
  auto col = std::make_shared<Column>(type);
  POCS_ASSIGN_OR_RETURN(uint64_t null_count, in->ReadVarint());
  if (null_count > nrows) return Status::Corruption("null_count > nrows");
  // Every row owns fixed-width bytes that must already be in the buffer
  // (its value or string offset, plus a validity byte when there are
  // nulls): a crafted row count fails here instead of in a resize.
  const size_t row_bytes = (type == TypeKind::kString ? 4 : TypeWidth(type)) +
                           (null_count > 0 ? 1 : 0);
  if (nrows > in->remaining() / row_bytes) {
    return Status::Corruption("row count exceeds column bytes");
  }
  if (null_count > 0) {
    col->mutable_validity().resize(nrows);
    POCS_RETURN_NOT_OK(in->ReadBytes(col->mutable_validity().data(), nrows));
  }
  switch (type) {
    case TypeKind::kBool:
      col->mutable_bool().resize(nrows);
      POCS_RETURN_NOT_OK(in->ReadBytes(col->mutable_bool().data(), nrows));
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      col->mutable_i32().resize(nrows);
      POCS_RETURN_NOT_OK(in->ReadBytes(col->mutable_i32().data(), nrows * 4));
      break;
    case TypeKind::kInt64:
      col->mutable_i64().resize(nrows);
      POCS_RETURN_NOT_OK(in->ReadBytes(col->mutable_i64().data(), nrows * 8));
      break;
    case TypeKind::kFloat64:
      col->mutable_f64().resize(nrows);
      POCS_RETURN_NOT_OK(in->ReadBytes(col->mutable_f64().data(), nrows * 8));
      break;
    case TypeKind::kString: {
      col->mutable_offsets().resize(nrows + 1);
      POCS_RETURN_NOT_OK(
          in->ReadBytes(col->mutable_offsets().data(), (nrows + 1) * 4));
      POCS_ASSIGN_OR_RETURN(uint64_t char_len, in->ReadVarint());
      if (char_len > in->remaining()) {
        return Status::Corruption("truncated string payload");
      }
      col->mutable_chars().resize(char_len);
      POCS_RETURN_NOT_OK(in->ReadBytes(col->mutable_chars().data(), char_len));
      // offset sanity: monotone, within chars
      const auto& off = col->offsets();
      int32_t prev = 0;
      for (int32_t o : off) {
        if (o < prev || static_cast<size_t>(o) > char_len) {
          return Status::Corruption("string offsets not monotone");
        }
        prev = o;
      }
      break;
    }
  }
  col->FinishDeserialized(nrows, null_count);
  return ColumnPtr(col);
}

namespace {

constexpr uint32_t kMagic = 0x41524F57;  // 'AROW'

void WriteBatchBody(const RecordBatch& batch, BufferWriter* out) {
  out->WriteVarint(batch.num_rows());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    WriteColumn(*batch.column(c), out);
  }
}

Result<RecordBatchPtr> ReadBatchBody(const SchemaPtr& schema,
                                     BufferReader* in) {
  POCS_ASSIGN_OR_RETURN(uint64_t nrows, in->ReadVarint());
  std::vector<ColumnPtr> cols;
  cols.reserve(schema->num_fields());
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    POCS_ASSIGN_OR_RETURN(ColumnPtr col,
                          ReadColumn(schema->field(c).type, nrows, in));
    cols.push_back(std::move(col));
  }
  return MakeBatch(schema, std::move(cols));
}

Bytes Finish(BufferWriter&& out) {
  out.WriteLE<uint64_t>(Checksum64(out.span()));
  return std::move(out).Take();
}

Result<BufferReader> OpenStream(ByteSpan data) {
  if (data.size() < 12) return Status::Corruption("IPC stream too short");
  uint64_t stored;
  std::memcpy(&stored, data.data() + data.size() - 8, 8);
  if (Checksum64(data.first(data.size() - 8)) != stored) {
    return Status::Corruption("IPC checksum mismatch");
  }
  BufferReader in(data.subspan(0, data.size() - 8));
  POCS_ASSIGN_OR_RETURN(uint32_t magic, in.ReadLE<uint32_t>());
  if (magic != kMagic) return Status::Corruption("bad IPC magic");
  return in;
}

}  // namespace

void WriteSchema(const Schema& schema, BufferWriter* out) {
  out->WriteVarint(schema.num_fields());
  for (const Field& f : schema.fields()) {
    out->WriteString(f.name);
    out->WriteU8(static_cast<uint8_t>(f.type));
    out->WriteU8(f.nullable ? 1 : 0);
  }
}

Result<SchemaPtr> ReadSchema(BufferReader* in) {
  POCS_ASSIGN_OR_RETURN(uint64_t n, in->ReadVarint());
  if (n > 100000) return Status::Corruption("implausible field count");
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Field f;
    POCS_ASSIGN_OR_RETURN(f.name, in->ReadString());
    POCS_ASSIGN_OR_RETURN(uint8_t t, in->ReadU8());
    if (t > static_cast<uint8_t>(TypeKind::kDate32)) {
      return Status::Corruption("unknown type id");
    }
    f.type = static_cast<TypeKind>(t);
    POCS_ASSIGN_OR_RETURN(uint8_t nullable, in->ReadU8());
    f.nullable = nullable != 0;
    fields.push_back(std::move(f));
  }
  return MakeSchema(std::move(fields));
}

void WriteDatum(const Datum& d, BufferWriter* out) {
  out->WriteU8(static_cast<uint8_t>(d.type()));
  out->WriteU8(d.is_null() ? 1 : 0);
  if (d.is_null()) return;
  switch (d.type()) {
    case TypeKind::kBool: out->WriteU8(d.bool_value() ? 1 : 0); break;
    case TypeKind::kInt32:
    case TypeKind::kDate32: out->WriteSVarint(d.int32_value()); break;
    case TypeKind::kInt64: out->WriteSVarint(d.int64_value()); break;
    case TypeKind::kFloat64: out->WriteLE<double>(d.float64_value()); break;
    case TypeKind::kString: out->WriteString(d.string_value()); break;
  }
}

Result<Datum> ReadDatum(BufferReader* in) {
  POCS_ASSIGN_OR_RETURN(uint8_t t, in->ReadU8());
  if (t > static_cast<uint8_t>(TypeKind::kDate32)) {
    return Status::Corruption("datum: unknown type id");
  }
  TypeKind type = static_cast<TypeKind>(t);
  POCS_ASSIGN_OR_RETURN(uint8_t is_null, in->ReadU8());
  if (is_null) return Datum::Null(type);
  switch (type) {
    case TypeKind::kBool: {
      POCS_ASSIGN_OR_RETURN(uint8_t v, in->ReadU8());
      return Datum::Bool(v != 0);
    }
    case TypeKind::kInt32: {
      POCS_ASSIGN_OR_RETURN(int64_t v, in->ReadSVarint());
      return Datum::Int32(static_cast<int32_t>(v));
    }
    case TypeKind::kDate32: {
      POCS_ASSIGN_OR_RETURN(int64_t v, in->ReadSVarint());
      return Datum::Date32(static_cast<int32_t>(v));
    }
    case TypeKind::kInt64: {
      POCS_ASSIGN_OR_RETURN(int64_t v, in->ReadSVarint());
      return Datum::Int64(v);
    }
    case TypeKind::kFloat64: {
      POCS_ASSIGN_OR_RETURN(double v, in->ReadLE<double>());
      return Datum::Float64(v);
    }
    case TypeKind::kString: {
      POCS_ASSIGN_OR_RETURN(std::string v, in->ReadString());
      return Datum::String(std::move(v));
    }
  }
  return Status::Corruption("datum: unreachable");
}

Bytes SerializeBatch(const RecordBatch& batch) {
  BufferWriter out(batch.ByteSize() + 64);
  out.WriteLE<uint32_t>(kMagic);
  WriteSchema(*batch.schema(), &out);
  out.WriteVarint(1);
  WriteBatchBody(batch, &out);
  return Finish(std::move(out));
}

Bytes SerializeTable(const Table& table) {
  BufferWriter out(table.ByteSize() + 64);
  out.WriteLE<uint32_t>(kMagic);
  WriteSchema(*table.schema(), &out);
  out.WriteVarint(table.batches().size());
  for (const auto& b : table.batches()) WriteBatchBody(*b, &out);
  return Finish(std::move(out));
}

Result<std::shared_ptr<Table>> DeserializeTable(ByteSpan data) {
  POCS_ASSIGN_OR_RETURN(BufferReader in, OpenStream(data));
  POCS_ASSIGN_OR_RETURN(SchemaPtr schema, ReadSchema(&in));
  POCS_ASSIGN_OR_RETURN(uint64_t nbatches, in.ReadVarint());
  auto table = std::make_shared<Table>(schema);
  for (uint64_t i = 0; i < nbatches; ++i) {
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr b, ReadBatchBody(schema, &in));
    table->AppendBatch(std::move(b));
  }
  return table;
}

Result<RecordBatchPtr> DeserializeBatch(ByteSpan data) {
  POCS_ASSIGN_OR_RETURN(auto table, DeserializeTable(data));
  if (table->batches().size() == 1) return table->batches()[0];
  return table->Combine();
}

}  // namespace pocs::columnar::ipc
