#include "columnar/ipc.h"

#include "common/checksum.h"

namespace pocs::columnar::ipc {

void WriteColumn(const Column& col, BufferWriter* out) {
  out->WriteVarint(col.null_count());
  if (col.type() == TypeKind::kString) out->WriteVarint(col.chars().size());
  auto write = [out](const Buffer& buffer) {
    out->Align8();
    out->WriteBytes(buffer.span());
  };
  if (col.null_count() > 0) write(col.validity_buffer());
  write(col.values_buffer());
  if (col.type() == TypeKind::kString) write(col.chars_buffer());
  out->Align8();
}

namespace {

// The next `n` bytes of `in` after its padding, as a slice of `owner`,
// whose bytes `in` reads.
Result<Buffer> ReadBuffer(const Buffer& owner, size_t n, BufferReader* in) {
  POCS_RETURN_NOT_OK(in->Align8());
  POCS_ASSIGN_OR_RETURN(ByteSpan bytes, in->ReadSpan(n));
  return owner.Slice(static_cast<size_t>(bytes.data() - owner.data()), n);
}

}  // namespace

Result<ColumnPtr> ReadColumn(TypeKind type, size_t nrows, const Buffer& data,
                             BufferReader* in) {
  POCS_ASSIGN_OR_RETURN(uint64_t null_count, in->ReadVarint());
  if (null_count > nrows) return Status::Corruption("null_count > nrows");
  uint64_t char_len = 0;
  if (type == TypeKind::kString) {
    POCS_ASSIGN_OR_RETURN(char_len, in->ReadVarint());
  }
  // Every row owns fixed-width bytes that must already be in the buffer
  // (its value or string offset, plus a validity byte when there are
  // nulls): a crafted row count fails here instead of in a slice.
  const size_t row_bytes = (type == TypeKind::kString ? 4 : TypeWidth(type)) +
                           (null_count > 0 ? 1 : 0);
  if (nrows > in->remaining() / row_bytes) {
    return Status::Corruption("row count exceeds column bytes");
  }
  Buffer validity;
  if (null_count > 0) {
    POCS_ASSIGN_OR_RETURN(validity, ReadBuffer(data, nrows, in));
    POCS_RETURN_NOT_OK(CheckValidity(validity.span(), null_count));
  }
  POCS_ASSIGN_OR_RETURN(Buffer values,
                        ReadBuffer(data, ValuesBytes(type, nrows), in));
  Buffer chars;
  if (type == TypeKind::kString) {
    POCS_ASSIGN_OR_RETURN(chars, ReadBuffer(data, char_len, in));
    // Offsets must be monotone and within chars.
    int32_t prev = 0;
    for (int32_t o : values.As<int32_t>()) {
      if (o < prev || static_cast<uint64_t>(o) > char_len) {
        return Status::Corruption("string offsets not monotone");
      }
      prev = o;
    }
  }
  POCS_RETURN_NOT_OK(in->Align8());
  return std::make_shared<const Column>(type, nrows, null_count,
                                        std::move(validity), std::move(values),
                                        std::move(chars));
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
                                     const Buffer& stream, BufferReader* in) {
  POCS_ASSIGN_OR_RETURN(uint64_t nrows, in->ReadVarint());
  std::vector<ColumnPtr> cols;
  cols.reserve(schema->num_fields());
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    POCS_ASSIGN_OR_RETURN(ColumnPtr col,
                          ReadColumn(schema->field(c).type, nrows, stream, in));
    cols.push_back(std::move(col));
  }
  return MakeBatch(schema, std::move(cols));
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

size_t MaxStreamBytes(const Table& table) {
  // Magic, field and batch counts, padding and trailer; per field its
  // schema entry; per column of a batch two varints and four paddings.
  size_t n = 4 + 10 + 10 + 7 + 8 + table.ByteSize();
  for (const Field& f : table.schema()->fields()) n += 12 + f.name.size();
  n += table.batches().size() * (10 + table.schema()->num_fields() * 48);
  return n;
}

void WriteTable(const Table& table, BufferWriter* out) {
  // Buffers are aligned relative to the stream's start.
  POCS_DCHECK_EQ(out->size() % 8, 0u);
  const size_t start = out->size();
  out->WriteLE<uint32_t>(kMagic);
  WriteSchema(*table.schema(), out);
  out->WriteVarint(table.batches().size());
  out->Align8();
  for (const auto& b : table.batches()) WriteBatchBody(*b, out);
  out->WriteLE<uint64_t>(Checksum64(out->span().subspan(start)));
}

Bytes SerializeBatch(const RecordBatch& batch) {
  // A one-batch table that borrows `batch` for the call.
  return SerializeTable(
      Table(batch.schema(), {RecordBatchPtr(RecordBatchPtr(), &batch)}));
}

Bytes SerializeTable(const Table& table) {
  BufferWriter out(MaxStreamBytes(table));
  WriteTable(table, &out);
  return std::move(out).Take();
}

Result<std::shared_ptr<Table>> DeserializeTable(const Buffer& stream) {
  // Slices keep the stream's alignment: a stream that starts off an
  // 8-byte boundary is decoded from an aligned copy.
  if (reinterpret_cast<uintptr_t>(stream.data()) % 8 != 0) {
    return DeserializeTable(Buffer::Copy(stream.span()));
  }
  POCS_ASSIGN_OR_RETURN(BufferReader in, OpenStream(stream.span()));
  POCS_ASSIGN_OR_RETURN(SchemaPtr schema, ReadSchema(&in));
  POCS_ASSIGN_OR_RETURN(uint64_t nbatches, in.ReadVarint());
  POCS_RETURN_NOT_OK(in.Align8());
  auto table = std::make_shared<Table>(schema);
  for (uint64_t i = 0; i < nbatches; ++i) {
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr b, ReadBatchBody(schema, stream, &in));
    table->AppendBatch(std::move(b));
  }
  if (!in.exhausted()) {
    return Status::Corruption("IPC: " + std::to_string(in.remaining()) +
                              " bytes between the last batch and the trailer");
  }
  return table;
}

Result<std::shared_ptr<Table>> DeserializeTable(ByteSpan data) {
  return DeserializeTable(Buffer::Copy(data));
}

Result<RecordBatchPtr> DeserializeBatch(ByteSpan data) {
  POCS_ASSIGN_OR_RETURN(auto table, DeserializeTable(data));
  if (table->batches().size() == 1) return table->batches()[0];
  return table->Combine();
}

}  // namespace pocs::columnar::ipc
