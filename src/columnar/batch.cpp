#include "columnar/batch.h"

namespace pocs::columnar {

RecordBatchPtr RecordBatch::Project(const std::vector<int>& indices) const {
  std::vector<Field> fields;
  std::vector<ColumnPtr> cols;
  fields.reserve(indices.size());
  cols.reserve(indices.size());
  for (int idx : indices) {
    fields.push_back(schema_->field(idx));
    cols.push_back(columns_[idx]);
  }
  return MakeBatch(MakeSchema(std::move(fields)), std::move(cols));
}

Status RecordBatch::Validate() const {
  if (columns_.size() != schema_->num_fields()) {
    return Status::InvalidArgument("batch has " +
                                   std::to_string(columns_.size()) +
                                   " columns, schema expects " +
                                   std::to_string(schema_->num_fields()));
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!columns_[i]) return Status::InvalidArgument("null column");
    if (columns_[i]->type() != schema_->field(i).type) {
      return Status::InvalidArgument("column " + std::to_string(i) +
                                     " type mismatch");
    }
    if (columns_[i]->length() != num_rows_) {
      return Status::InvalidArgument("ragged batch: column " +
                                     std::to_string(i));
    }
  }
  return Status::OK();
}

RecordBatchPtr Table::Combine() const {
  // Columns are immutable once built, so one batch's are shared as they are.
  if (batches_.size() == 1) return MakeBatch(schema_, batches_[0]->columns());
  std::vector<ColumnPtr> cols;
  cols.reserve(schema_->num_fields());
  for (size_t c = 0; c < schema_->num_fields(); ++c) {
    auto out = MakeColumn(schema_->field(c).type);
    out->Reserve(num_rows());
    for (const auto& b : batches_) {
      out->AppendRange(*b->column(c), 0, b->num_rows());
    }
    cols.push_back(std::move(out));
  }
  return MakeBatch(schema_, std::move(cols));
}

}  // namespace pocs::columnar
