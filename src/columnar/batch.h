// RecordBatch: a horizontal slice of a table — a schema plus one column
// per field, all the same length. Tables are simply ordered collections
// of batches. This mirrors Arrow's RecordBatch/Table split and is the
// unit of data flow everywhere in the repo (engine pages wrap one batch).
#pragma once

#include <memory>
#include <vector>

#include "columnar/column.h"
#include "columnar/types.h"
#include "common/check.h"

namespace pocs::columnar {

class RecordBatch;
using RecordBatchPtr = std::shared_ptr<const RecordBatch>;

class RecordBatch {
 public:
  RecordBatch(SchemaPtr schema, std::vector<ColumnPtr> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {
    num_rows_ = columns_.empty() ? 0 : columns_[0]->length();
  }

  const SchemaPtr& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }
  const ColumnPtr& column(size_t i) const {
    POCS_DCHECK_LT(i, columns_.size());
    return columns_[i];
  }
  const std::vector<ColumnPtr>& columns() const { return columns_; }

  // Column by field name; nullptr if absent.
  ColumnPtr ColumnByName(std::string_view name) const {
    int idx = schema_->FieldIndex(name);
    return idx < 0 ? nullptr : columns_[idx];
  }

  // Sum of column byte sizes — the batch's wire footprint proxy.
  size_t ByteSize() const {
    size_t n = 0;
    for (const auto& c : columns_) n += c->ByteSize();
    return n;
  }

  // A batch containing only the given column indices (schema projected too).
  RecordBatchPtr Project(const std::vector<int>& indices) const;

  // Validates column count/length/type against the schema.
  Status Validate() const;

 private:
  SchemaPtr schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_;
};

inline RecordBatchPtr MakeBatch(SchemaPtr schema,
                                std::vector<ColumnPtr> columns) {
  return std::make_shared<const RecordBatch>(std::move(schema),
                                             std::move(columns));
}

// An ordered sequence of batches sharing one schema.
class Table {
 public:
  explicit Table(SchemaPtr schema) : schema_(std::move(schema)) {}
  Table(SchemaPtr schema, std::vector<RecordBatchPtr> batches)
      : schema_(std::move(schema)), batches_(std::move(batches)) {}

  const SchemaPtr& schema() const { return schema_; }
  const std::vector<RecordBatchPtr>& batches() const { return batches_; }
  void AppendBatch(RecordBatchPtr batch) { batches_.push_back(std::move(batch)); }

  size_t num_rows() const {
    size_t n = 0;
    for (const auto& b : batches_) n += b->num_rows();
    return n;
  }
  size_t ByteSize() const {
    size_t n = 0;
    for (const auto& b : batches_) n += b->ByteSize();
    return n;
  }

  // Concatenate all batches into one (copies, unless there is only one).
  RecordBatchPtr Combine() const;

 private:
  SchemaPtr schema_;
  std::vector<RecordBatchPtr> batches_;
};

}  // namespace pocs::columnar
