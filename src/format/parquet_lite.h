// Parquet-lite: the columnar storage file format objects are stored in.
//
// Mirrors the structural features of Apache Parquet that the paper's
// pipeline depends on: row groups, per-column chunks with min/max/NDV
// statistics (chunk skipping), pluggable compression per file, and a
// self-describing footer. Files are byte buffers — the object store is
// the only persistence layer, as in the paper's S3/OCS setup.
//
// Layout (v2, all little-endian, varint = LEB128):
//   file    := magic(u32 'PQL2') chunk* footer footer_len(u32)
//              magic(u32 'PQL2')
//   chunk   := one codec-compressed page (format/encoding.h)
//   footer  := schema codec:u8 num_rows:varint n_groups:varint
//              group* file-level stats per column
//              checksum:u64 over every footer byte before it
//   group   := n_rows:varint chunk_meta*       (one per schema field)
//   chunk_meta := offset:varint length:varint checksum:u64 stats
// footer_len counts the footer including its checksum.
//
// Integrity: each chunk's bytes are covered by its Checksum64
// (common/checksum.h), verified when the chunk is read from the file,
// before decompression; the footer's bytes by the footer's own, verified
// by ReadFooterTail (so at Open and at the planner's DescribeObject).
// The magics and footer_len are checked by value: a wrong footer_len
// frames the wrong bytes as the footer, which fails its checksum.
// Decoded columns served from a cache are not re-verified.
#pragma once

#include <memory>
#include <vector>

#include "columnar/batch.h"
#include "compress/codec.h"
#include "format/stats.h"

namespace pocs::format {

constexpr uint32_t kParquetLiteMagic = 0x324C5150;  // 'PQL2'

struct WriterOptions {
  compress::CodecType codec = compress::CodecType::kNone;
  size_t rows_per_group = 64 * 1024;
};

struct ChunkMeta {
  uint64_t offset = 0;  // absolute file offset of the compressed chunk
  uint64_t length = 0;  // compressed byte length
  uint64_t checksum = 0;  // Checksum64 of the compressed bytes
  ColumnStats stats;
};

struct RowGroupMeta {
  uint64_t num_rows = 0;
  std::vector<ChunkMeta> chunks;  // one per schema field
};

struct FileMeta {
  columnar::SchemaPtr schema;
  compress::CodecType codec = compress::CodecType::kNone;
  uint64_t num_rows = 0;
  std::vector<RowGroupMeta> row_groups;
  std::vector<ColumnStats> column_stats;  // file-level, one per field
};

// Streaming writer: append batches, then Finish() to obtain file bytes.
class FileWriter {
 public:
  FileWriter(columnar::SchemaPtr schema, WriterOptions options);

  Status WriteBatch(const columnar::RecordBatch& batch);
  // Flushes pending rows and writes the footer. Writer is then spent.
  Result<Bytes> Finish();

 private:
  Status FlushGroup();

  columnar::SchemaPtr schema_;
  WriterOptions options_;
  BufferWriter out_;
  FileMeta meta_;
  std::vector<std::shared_ptr<columnar::Column>> pending_;
  std::vector<StatsCollector> file_stats_;
  // Each chunk's collector, reset per chunk so its distinct set keeps
  // its allocations; the file's collectors merge it.
  StatsCollector chunk_stats_{columnar::TypeKind::kInt64};
  size_t pending_rows_ = 0;
  bool finished_ = false;
};

// Reader over a complete in-memory file. Column projection and row-group
// selection are first-class so storage-side execution reads only what a
// query needs (the paper's §2.2 selective-retrieval property).
class FileReader {
 public:
  // Opens a reader over immutable shared file bytes (an object store's
  // ObjectData) without copying them. The reader holds the bytes, so it
  // keeps reading the version it opened even if the object is replaced.
  static Result<std::shared_ptr<FileReader>> Open(
      std::shared_ptr<const Bytes> file);
  // For callers that own the file's bytes (a fetched object).
  static Result<std::shared_ptr<FileReader>> Open(Bytes file);

  const FileMeta& meta() const { return meta_; }
  const columnar::SchemaPtr& schema() const { return meta_.schema; }
  size_t num_row_groups() const { return meta_.row_groups.size(); }

  // Read one row group, materializing only `column_indices` (all if empty).
  // The returned batch's schema is the projected schema.
  Result<columnar::RecordBatchPtr> ReadRowGroup(
      size_t group, const std::vector<int>& column_indices = {}) const;

  // Read the whole file (projected), as a table of per-group batches.
  Result<std::shared_ptr<columnar::Table>> ReadAll(
      const std::vector<int>& column_indices = {}) const;

  // Bytes that a range-read of just these columns in this group would
  // fetch — used for transfer accounting in filter-only pushdown paths.
  uint64_t ChunkBytes(size_t group, const std::vector<int>& columns) const;

  // One column chunk of one row group, decoded: checksum, decompression
  // and page decode. ReadRowGroup is this per projected column; the
  // storage node's scan and its read-ahead tasks call it per chunk.
  Result<columnar::ColumnPtr> ReadChunk(size_t group, int column) const;

  // Decompressed encoded page bytes (leading encoding byte) of one
  // column chunk, without materializing the column. The dictionary-aware
  // scan path uses this to evaluate predicates in the code domain and
  // decode only surviving rows (DESIGN.md §15).
  Result<Bytes> ReadChunkPage(size_t group, int column) const;

 private:
  FileReader(std::shared_ptr<const Bytes> file, FileMeta meta)
      : file_(std::move(file)), meta_(std::move(meta)) {}

  // The compressed bytes of one chunk, verified against its checksum.
  Result<ByteSpan> ChunkData(size_t group, int column) const;

  std::shared_ptr<const Bytes> file_;
  FileMeta meta_;
};

// Parse only the footer of a file (cheap metadata access), after
// checking the head magic: ReadFooterTail over the file's FooterTail.
Result<FileMeta> ReadFooter(ByteSpan file);

// The file's footer tail: footer, footer checksum, footer_len and tail
// magic, located by footer_len. The storage node answers DescribeObject
// with these bytes (DESIGN.md §13); only footer_len is checked here.
Result<ByteSpan> FooterTail(ByteSpan file);

// Parses exactly one footer tail of a file of `file_size` bytes, after
// checking its magic and footer_len by value and verifying the footer
// checksum; chunk ranges must lie within `file_size`. The one footer
// parser: ReadFooter and the planner's DescribeObject both run it.
Result<FileMeta> ReadFooterTail(ByteSpan tail, uint64_t file_size);

}  // namespace pocs::format
