// Executes a linear IR relation chain (Read → … → root) against an
// abstract batch source. This is the execution core of the OCS embedded
// engine, and doubles as the reference executor in equivalence tests.
//
// Streaming where possible: Filter and Project are applied per batch;
// Aggregate, Sort, and Fetch materialize. A Fetch directly above a Sort
// fuses into bounded top-N (the paper's ORDER BY + LIMIT operator).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "columnar/batch.h"
#include "columnar/kernels.h"
#include "common/bloom.h"
#include "substrait/rel.h"

namespace pocs::exec {

// A scan batch plus an optional selection restricting it. When
// `selection` is set, only those rows (ascending indices) are logically
// present; rows outside it may carry unmaterialized placeholder data
// (late materialization, DESIGN.md §15) and must never be observed
// except under an intersecting selection. Ownership: the selection
// always travels with — and indexes into — exactly this batch.
struct SelectedBatch {
  columnar::RecordBatchPtr batch;  // nullptr at end of stream
  std::optional<columnar::SelectionVector> selection;
};

// Pull-based source of scan batches for one Read relation.
class BatchSource {
 public:
  virtual ~BatchSource() = default;
  virtual columnar::SchemaPtr schema() const = 0;
  // nullptr at end of stream. Always fully materialized.
  virtual Result<columnar::RecordBatchPtr> Next() = 0;
  // Selection-carrying variant, the executor's preferred entry point:
  // sources that pre-filter rows (pushed blooms, code-domain predicate
  // evaluation) hand back the full batch plus the surviving selection
  // instead of materializing a compacted copy. The default wraps Next().
  virtual Result<SelectedBatch> NextSelected() {
    POCS_ASSIGN_OR_RETURN(columnar::RecordBatchPtr batch, Next());
    return SelectedBatch{std::move(batch), std::nullopt};
  }
};

using ScanFactory = std::function<Result<std::unique_ptr<BatchSource>>(
    const substrait::Rel& read)>;

// Rows in/out and measured wall time attributed to one operator kind
// across the whole execution (streaming applies accumulate per batch).
struct OperatorCounters {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t invocations = 0;  // batch-level applications (or 1 if blocking)
  double seconds = 0;
};

struct ExecStats {
  static constexpr size_t kNumRelKinds = 6;  // mirrors substrait::RelKind

  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t batches_scanned = 0;
  // Per-operator accounting, indexed by substrait::RelKind.
  std::array<OperatorCounters, kNumRelKinds> operators{};

  OperatorCounters& ForKind(substrait::RelKind kind) {
    return operators[static_cast<size_t>(kind)];
  }
  const OperatorCounters& ForKind(substrait::RelKind kind) const {
    return operators[static_cast<size_t>(kind)];
  }
};

// Execute the chain rooted at `root`; every Read leaf is resolved through
// `scan_factory`.
Result<std::shared_ptr<columnar::Table>> ExecuteRel(
    const substrait::Rel& root, const ScanFactory& scan_factory,
    ExecStats* stats = nullptr);

// Rows of an integer key column that pass a bloom filter (nulls never
// pass — an inner-join key of NULL matches nothing). Non-integer columns
// keep every row: the safe direction, since bloom reduction is advisory.
// The storage node's scan prunes with it, for pushed plans and fallbacks
// alike.
columnar::SelectionVector BloomSelectRows(const columnar::Column& col,
                                          const BloomFilter& bloom);

// An in-memory BatchSource over an existing table (tests, reference runs).
class TableSource : public BatchSource {
 public:
  explicit TableSource(std::shared_ptr<const columnar::Table> table)
      : table_(std::move(table)) {}
  columnar::SchemaPtr schema() const override { return table_->schema(); }
  Result<columnar::RecordBatchPtr> Next() override {
    if (next_ >= table_->batches().size()) return columnar::RecordBatchPtr{};
    return table_->batches()[next_++];
  }

 private:
  std::shared_ptr<const columnar::Table> table_;
  size_t next_ = 0;
};

}  // namespace pocs::exec
