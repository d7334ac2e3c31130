#include "format/parquet_lite.h"

#include "columnar/ipc.h"
#include "common/check.h"
#include "common/checksum.h"
#include "format/encoding.h"

namespace pocs::format {

using columnar::Column;
using columnar::ColumnPtr;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::RecordBatch;
using columnar::RecordBatchPtr;
using columnar::SchemaPtr;

FileWriter::FileWriter(SchemaPtr schema, WriterOptions options)
    : schema_(std::move(schema)), options_(options) {
  out_.WriteLE<uint32_t>(kParquetLiteMagic);
  meta_.schema = schema_;
  meta_.codec = options_.codec;
  for (size_t c = 0; c < schema_->num_fields(); ++c) {
    pending_.push_back(MakeColumn(schema_->field(c).type));
    file_stats_.emplace_back(schema_->field(c).type);
  }
}

Status FileWriter::WriteBatch(const RecordBatch& batch) {
  if (finished_) return Status::Internal("writer already finished");
  if (!batch.schema()->Equals(*schema_)) {
    return Status::InvalidArgument("batch schema does not match file schema");
  }
  POCS_RETURN_NOT_OK(batch.Validate());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const Column& src = *batch.column(c);
    pending_[c]->AppendRange(src, 0, src.length());
  }
  pending_rows_ += batch.num_rows();
  while (pending_rows_ >= options_.rows_per_group) {
    POCS_RETURN_NOT_OK(FlushGroup());
  }
  return Status::OK();
}

Status FileWriter::FlushGroup() {
  const size_t take = std::min(pending_rows_, options_.rows_per_group);
  if (take == 0) return Status::OK();

  RowGroupMeta group;
  group.num_rows = take;
  const auto& codec = compress::GetCodec(options_.codec);

  std::vector<std::shared_ptr<Column>> rest;
  for (size_t c = 0; c < pending_.size(); ++c) {
    // Split pending column into [0, take) and the remainder.
    auto& col = pending_[c];
    std::shared_ptr<Column> head, tail;
    if (col->length() == take) {
      head = col;
      tail = MakeColumn(schema_->field(c).type);
    } else {
      head = MakeColumn(schema_->field(c).type);
      tail = MakeColumn(schema_->field(c).type);
      head->AppendRange(*col, 0, take);
      tail->AppendRange(*col, take, col->length() - take);
    }
    rest.push_back(tail);

    chunk_stats_.Reset(schema_->field(c).type);
    chunk_stats_.Update(*head);
    file_stats_[c].Merge(chunk_stats_);

    Bytes payload = EncodePage(*head, schema_->field(c));
    Bytes compressed =
        codec.Compress(ByteSpan(payload.data(), payload.size()));

    ChunkMeta chunk;
    chunk.offset = out_.size();
    chunk.length = compressed.size();
    chunk.checksum = Checksum64(compressed);
    chunk.stats = chunk_stats_.stats();
    out_.WriteBytes(compressed.data(), compressed.size());
    group.chunks.push_back(std::move(chunk));
  }
  pending_ = std::move(rest);
  pending_rows_ -= take;
  meta_.num_rows += take;
  meta_.row_groups.push_back(std::move(group));
  return Status::OK();
}

Result<Bytes> FileWriter::Finish() {
  if (finished_) return Status::Internal("writer already finished");
  while (pending_rows_ > 0) POCS_RETURN_NOT_OK(FlushGroup());
  finished_ = true;

  for (auto& collector : file_stats_) {
    meta_.column_stats.push_back(collector.stats());
  }

  const size_t footer_start = out_.size();
  columnar::ipc::WriteSchema(*schema_, &out_);
  out_.WriteU8(static_cast<uint8_t>(options_.codec));
  out_.WriteVarint(meta_.num_rows);
  out_.WriteVarint(meta_.row_groups.size());
  for (const RowGroupMeta& g : meta_.row_groups) {
    out_.WriteVarint(g.num_rows);
    for (const ChunkMeta& chunk : g.chunks) {
      out_.WriteVarint(chunk.offset);
      out_.WriteVarint(chunk.length);
      out_.WriteLE<uint64_t>(chunk.checksum);
      chunk.stats.Serialize(&out_);
    }
  }
  for (const ColumnStats& s : meta_.column_stats) s.Serialize(&out_);
  out_.WriteLE<uint64_t>(Checksum64(out_.span().subspan(footer_start)));
  out_.WriteLE<uint32_t>(static_cast<uint32_t>(out_.size() - footer_start));
  out_.WriteLE<uint32_t>(kParquetLiteMagic);
  return std::move(out_).Take();
}

Result<ByteSpan> FooterTail(ByteSpan file) {
  if (file.size() < 16) return Status::Corruption("parquet-lite: too short");
  uint32_t footer_len;
  std::memcpy(&footer_len, file.data() + file.size() - 8, 4);
  // footer_len is attacker-controlled; the widened compare avoids the
  // uint32 overflow a crafted footer_len near UINT32_MAX would cause.
  if (footer_len < 8 || uint64_t{footer_len} + 8 > file.size()) {
    return Status::Corruption("parquet-lite: bad footer length");
  }
  return file.last(footer_len + 8);
}

Result<FileMeta> ReadFooter(ByteSpan file) {
  uint32_t head_magic = 0;
  if (file.size() >= 4) std::memcpy(&head_magic, file.data(), 4);
  if (head_magic != kParquetLiteMagic) {
    return Status::Corruption("parquet-lite: bad magic");
  }
  POCS_ASSIGN_OR_RETURN(ByteSpan tail, FooterTail(file));
  return ReadFooterTail(tail, file.size());
}

Result<FileMeta> ReadFooterTail(ByteSpan tail, uint64_t file_size) {
  if (tail.size() < 16 || tail.size() > file_size) {
    return Status::Corruption("parquet-lite: bad footer tail");
  }
  uint32_t footer_len, tail_magic;
  std::memcpy(&footer_len, tail.data() + tail.size() - 8, 4);
  std::memcpy(&tail_magic, tail.data() + tail.size() - 4, 4);
  if (tail_magic != kParquetLiteMagic) {
    return Status::Corruption("parquet-lite: bad magic");
  }
  if (uint64_t{footer_len} + 8 != tail.size()) {
    return Status::Corruption("parquet-lite: bad footer length");
  }
  const ByteSpan footer = tail.first(footer_len - 8);
  uint64_t stored;
  std::memcpy(&stored, footer.data() + footer.size(), 8);
  if (Checksum64(footer) != stored) {
    return Status::Corruption("parquet-lite: footer checksum mismatch");
  }
  BufferReader in(footer);

  FileMeta meta;
  POCS_ASSIGN_OR_RETURN(meta.schema, columnar::ipc::ReadSchema(&in));
  POCS_ASSIGN_OR_RETURN(uint8_t codec, in.ReadU8());
  if (codec > static_cast<uint8_t>(compress::CodecType::kZsLite)) {
    return Status::Corruption("parquet-lite: unknown codec");
  }
  meta.codec = static_cast<compress::CodecType>(codec);
  POCS_ASSIGN_OR_RETURN(meta.num_rows, in.ReadVarint());
  POCS_ASSIGN_OR_RETURN(uint64_t n_groups, in.ReadVarint());
  for (uint64_t g = 0; g < n_groups; ++g) {
    RowGroupMeta group;
    POCS_ASSIGN_OR_RETURN(group.num_rows, in.ReadVarint());
    for (size_t c = 0; c < meta.schema->num_fields(); ++c) {
      ChunkMeta chunk;
      POCS_ASSIGN_OR_RETURN(chunk.offset, in.ReadVarint());
      POCS_ASSIGN_OR_RETURN(chunk.length, in.ReadVarint());
      POCS_ASSIGN_OR_RETURN(chunk.checksum, in.ReadLE<uint64_t>());
      // Overflow-safe bounds check on untrusted offsets.
      if (chunk.offset > file_size ||
          chunk.length > file_size - chunk.offset) {
        return Status::Corruption("parquet-lite: chunk out of bounds");
      }
      POCS_ASSIGN_OR_RETURN(chunk.stats, ColumnStats::Deserialize(&in));
      group.chunks.push_back(std::move(chunk));
    }
    meta.row_groups.push_back(std::move(group));
  }
  for (size_t c = 0; c < meta.schema->num_fields(); ++c) {
    POCS_ASSIGN_OR_RETURN(ColumnStats s, ColumnStats::Deserialize(&in));
    meta.column_stats.push_back(std::move(s));
  }
  if (!in.exhausted()) return Status::Corruption("parquet-lite: trailing footer bytes");
  return meta;
}

Result<std::shared_ptr<FileReader>> FileReader::Open(
    std::shared_ptr<const Bytes> file) {
  POCS_CHECK(file != nullptr);
  POCS_ASSIGN_OR_RETURN(FileMeta meta, ReadFooter(*file));
  // Private constructor (callers must go through Open), so make_shared
  // is unavailable.
  // NOLINTNEXTLINE(cppcoreguidelines-owning-memory) pocs-lint: allow(naked-new)
  auto* reader = new FileReader(std::move(file), std::move(meta));
  return std::shared_ptr<FileReader>(reader);
}

Result<std::shared_ptr<FileReader>> FileReader::Open(Bytes file) {
  return Open(std::make_shared<const Bytes>(std::move(file)));
}

Result<ByteSpan> FileReader::ChunkData(size_t group, int column) const {
  // ReadFooter guarantees one chunk per schema field per row group and
  // validated each chunk's byte range against the file.
  const RowGroupMeta& g = meta_.row_groups[group];
  POCS_DCHECK_LT(static_cast<size_t>(column), g.chunks.size());
  const ChunkMeta& chunk = g.chunks[column];
  POCS_DCHECK_LE(chunk.offset + chunk.length, file_->size());
  const ByteSpan raw(file_->data() + chunk.offset, chunk.length);
  if (Checksum64(raw) != chunk.checksum) {
    return Status::Corruption("parquet-lite: chunk checksum mismatch");
  }
  return raw;
}

Result<RecordBatchPtr> FileReader::ReadRowGroup(
    size_t group, const std::vector<int>& column_indices) const {
  if (group >= meta_.row_groups.size()) {
    return Status::OutOfRange("row group " + std::to_string(group));
  }
  std::vector<int> cols = column_indices;
  if (cols.empty()) {
    for (size_t c = 0; c < meta_.schema->num_fields(); ++c) {
      cols.push_back(static_cast<int>(c));
    }
  }
  std::vector<columnar::Field> fields;
  std::vector<ColumnPtr> columns;
  for (int c : cols) {
    POCS_ASSIGN_OR_RETURN(ColumnPtr column, ReadChunk(group, c));
    fields.push_back(meta_.schema->field(c));
    columns.push_back(std::move(column));
  }
  return MakeBatch(columnar::MakeSchema(std::move(fields)),
                   std::move(columns));
}

Result<ColumnPtr> FileReader::ReadChunk(size_t group, int column) const {
  POCS_ASSIGN_OR_RETURN(Bytes payload, ReadChunkPage(group, column));
  return DecodePage(Buffer::Adopt(std::move(payload)),
                    meta_.schema->field(column),
                    meta_.row_groups[group].num_rows);
}

Result<std::shared_ptr<columnar::Table>> FileReader::ReadAll(
    const std::vector<int>& column_indices) const {
  std::shared_ptr<columnar::Table> table;
  for (size_t g = 0; g < meta_.row_groups.size(); ++g) {
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                          ReadRowGroup(g, column_indices));
    if (!table) table = std::make_shared<columnar::Table>(batch->schema());
    table->AppendBatch(std::move(batch));
  }
  if (!table) {
    // Zero row groups: project the schema for an empty table.
    std::vector<columnar::Field> fields;
    if (column_indices.empty()) {
      fields = meta_.schema->fields();
    } else {
      for (int c : column_indices) fields.push_back(meta_.schema->field(c));
    }
    table = std::make_shared<columnar::Table>(
        columnar::MakeSchema(std::move(fields)));
  }
  return table;
}

Result<Bytes> FileReader::ReadChunkPage(size_t group, int column) const {
  if (group >= meta_.row_groups.size()) {
    return Status::OutOfRange("row group " + std::to_string(group));
  }
  if (column < 0 ||
      static_cast<size_t>(column) >= meta_.schema->num_fields()) {
    return Status::InvalidArgument("bad column index");
  }
  POCS_ASSIGN_OR_RETURN(ByteSpan raw, ChunkData(group, column));
  return compress::GetCodec(meta_.codec).Decompress(raw);
}

uint64_t FileReader::ChunkBytes(size_t group,
                                const std::vector<int>& columns) const {
  if (group >= meta_.row_groups.size()) return 0;
  const RowGroupMeta& g = meta_.row_groups[group];
  uint64_t total = 0;
  if (columns.empty()) {
    for (const ChunkMeta& chunk : g.chunks) total += chunk.length;
  } else {
    for (int c : columns) {
      if (c >= 0 && static_cast<size_t>(c) < g.chunks.size()) {
        total += g.chunks[c].length;
      }
    }
  }
  return total;
}

}  // namespace pocs::format
