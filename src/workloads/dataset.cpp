#include "workloads/dataset.h"

#include <algorithm>

namespace pocs::workloads {

DatasetBuilder::DatasetBuilder(std::string schema_name, std::string table_name,
                               std::string bucket,
                               columnar::SchemaPtr schema) {
  dataset_.info.schema_name = std::move(schema_name);
  dataset_.info.table_name = std::move(table_name);
  dataset_.info.bucket = std::move(bucket);
  dataset_.info.schema = std::move(schema);
}

Status DatasetBuilder::AddFile(
    const std::string& key,
    const std::vector<columnar::RecordBatchPtr>& batches,
    const format::WriterOptions& options) {
  format::FileWriter writer(dataset_.info.schema, options);
  for (const auto& batch : batches) {
    POCS_RETURN_NOT_OK(writer.WriteBatch(*batch));
  }
  POCS_ASSIGN_OR_RETURN(Bytes file, writer.Finish());
  POCS_ASSIGN_OR_RETURN(format::FileMeta meta,
                        format::ReadFooter(ByteSpan(file.data(), file.size())));

  dataset_.info.objects.push_back(key);
  dataset_.info.row_count += meta.num_rows;
  dataset_.info.total_bytes += file.size();
  if (file_stats_.empty()) {
    dataset_.info.column_stats = meta.column_stats;
  } else {
    for (size_t c = 0; c < meta.column_stats.size(); ++c) {
      dataset_.info.column_stats[c].Merge(meta.column_stats[c]);
    }
  }
  file_stats_.push_back(std::move(meta.column_stats));
  dataset_.files.emplace_back(key, std::move(file));
  return Status::OK();
}

GeneratedDataset DatasetBuilder::Finish() {
  const size_t num_columns = dataset_.info.column_stats.size();
  dataset_.info.object_disjoint.assign(num_columns, false);
  for (size_t c = 0; c < num_columns; ++c) {
    // Sort the files' value ranges by min; disjoint means each range
    // ends strictly below the next one's start.
    std::vector<const format::ColumnStats*> ranges;
    size_t files_with_nulls = 0;
    for (const auto& stats : file_stats_) {
      if (stats[c].null_count > 0) ++files_with_nulls;
      if (!stats[c].min.is_null()) ranges.push_back(&stats[c]);
    }
    std::sort(ranges.begin(), ranges.end(), [](const auto* a, const auto* b) {
      return a->min.Compare(b->min) < 0;
    });
    bool disjoint = files_with_nulls <= 1;
    for (size_t i = 1; disjoint && i < ranges.size(); ++i) {
      disjoint = ranges[i - 1]->max.Compare(ranges[i]->min) < 0;
    }
    dataset_.info.object_disjoint[c] = disjoint;
  }
  return std::move(dataset_);
}

}  // namespace pocs::workloads
