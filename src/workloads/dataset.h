// Dataset generation scaffolding: a generated dataset is a set of
// Parquet-lite file objects plus the merged metastore TableInfo
// (object list, row counts, per-column min/max/NDV statistics).
#pragma once

#include <string>
#include <vector>

#include "format/parquet_lite.h"
#include "metastore/metastore.h"

namespace pocs::workloads {

struct GeneratedDataset {
  metastore::TableInfo info;
  // key → file bytes, parallel to info.objects.
  std::vector<std::pair<std::string, Bytes>> files;
};

// Accumulates per-file writes into a GeneratedDataset, merging statistics
// and, at Finish(), marking the columns whose values never span two
// objects (TableInfo::object_disjoint).
class DatasetBuilder {
 public:
  DatasetBuilder(std::string schema_name, std::string table_name,
                 std::string bucket, columnar::SchemaPtr schema);

  // Serialize one file from batches and add it under `key`.
  Status AddFile(const std::string& key,
                 const std::vector<columnar::RecordBatchPtr>& batches,
                 const format::WriterOptions& options);

  GeneratedDataset Finish();

 private:
  GeneratedDataset dataset_;
  // Each file's footer statistics, one vector per file.
  std::vector<std::vector<format::ColumnStats>> file_stats_;
};

}  // namespace pocs::workloads
