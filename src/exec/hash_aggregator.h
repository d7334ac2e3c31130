// Vectorized hash aggregation shared by the OCS embedded engine and the
// compute engine's AggregationOperator. Consumes batches, maintains one
// accumulator row per distinct group-key tuple, and produces a final
// batch of keys + aggregate results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/kernels.h"
#include "substrait/expr.h"

namespace pocs::exec {

class HashAggregator {
 public:
  // group_keys: column indices into the input schema.
  HashAggregator(columnar::SchemaPtr input_schema, std::vector<int> group_keys,
                 std::vector<substrait::AggregateSpec> aggregates);

  Status Consume(const columnar::RecordBatch& batch);
  // Selection-aware variant: accumulate only the rows in `sel` (every
  // row when null). Aggregate arguments are evaluated over the whole
  // batch, and keys hashed for the selected rows only. A probe pass in
  // row order then gives each selected row the group of the previous one
  // when their hashes are equal, else the group its hash finds in the
  // slot table, creating it if missing; one typed loop per key column
  // then checks every row's keys against its group's stored keys. A
  // batch that fails a check (a NaN key, a hash collision) drops the
  // groups it created and is renumbered row by row, so groups are
  // numbered by first appearance on every input.
  // Finally one typed loop per aggregate folds the selected rows in, in
  // row order (so float sums are reproducible). Placeholder rows under
  // late materialization (DESIGN.md §15) never reach an accumulator.
  Status Consume(const columnar::RecordBatch& batch,
                 const columnar::SelectionVector* sel);

  // Output schema: group key fields followed by aggregate outputs.
  columnar::SchemaPtr output_schema() const { return output_schema_; }
  size_t num_groups() const { return group_count_; }

  // Produces the result batch; the aggregator is spent afterwards.
  // With no group keys and zero input rows, emits SQL's global-aggregate
  // single row (COUNT = 0, other aggregates NULL).
  Result<columnar::RecordBatchPtr> Finish();

 private:
  // One aggregate's running state, indexed by group id. `count` is always
  // kept (non-null inputs; rows for COUNT(*)); the other vectors are sized
  // only for the aggregates that use them: i64 for SUM over integers and
  // MIN/MAX over integers or bools, f64 for SUM over float64, AVG and
  // MIN/MAX over float64, str for MIN/MAX over strings.
  struct Accumulator {
    std::vector<int64_t> count;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
  };

  // Slot of the group-id table; group == kEmptySlot marks a free slot.
  struct Slot {
    uint64_t hash;
    uint32_t group;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // Gives live row j (row rows[j], or j without a selection) the group
  // of the previous live row when their hashes are equal, else the group
  // its hash finds, creating missing groups and gathering their keys.
  void ProbeByHash(const std::vector<columnar::ColumnPtr>& keys,
                   const uint32_t* rows, size_t live);
  // The first group whose hash is `hash`; a new one, whose keys are row
  // `row`'s, when there is none.
  uint32_t FindOrAddGroup(uint64_t hash, size_t row);
  // True iff every live row's keys equal its group's stored keys.
  bool KeysMatch(const std::vector<columnar::ColumnPtr>& keys,
                 const uint32_t* rows, size_t live) const;
  // The exact path: drops groups from `first_new` on, then numbers every
  // live row through GroupFor.
  void Renumber(const std::vector<columnar::ColumnPtr>& keys,
                const uint32_t* rows, size_t live, size_t first_new);
  // Index of the group whose stored keys equal row `row` of `keys`,
  // creating it if there is none; `stored` views key_store_.
  uint32_t GroupFor(const std::vector<columnar::ColumnPtr>& stored,
                    const std::vector<columnar::ColumnPtr>& keys, size_t row,
                    uint64_t hash);
  // Creates the next group in free slot `i`, for rows hashing to `hash`.
  uint32_t AddGroup(size_t i, uint64_t hash);
  // Re-inserts every group into a table of `capacity` slots.
  void Rehash(size_t capacity);
  // Sizes every accumulator to group_count_ (new groups start empty).
  void GrowAccumulators();
  // Folds the live rows of one aggregate's argument into its accumulator.
  void Update(const substrait::AggregateSpec& agg, const columnar::Column* arg,
              const columnar::SelectionVector* sel, Accumulator* acc) const;

  columnar::SchemaPtr input_schema_;
  std::vector<int> group_keys_;
  std::vector<substrait::AggregateSpec> aggregates_;
  columnar::SchemaPtr output_schema_;

  // Accumulated distinct key tuples, one builder column per key.
  std::vector<std::shared_ptr<columnar::Column>> key_store_;
  // Open-addressing table from a key tuple's columnar::HashRows value to
  // its group id: linear probing, power-of-two capacity, at most half
  // full. Groups whose keys hash alike (a collision, NaN keys) share a
  // hash in several slots.
  std::vector<Slot> slots_;
  std::vector<Accumulator> accumulators_;  // one per aggregate
  // Per-batch scratch: the hash and the group id of each live row, and
  // the rows whose keys created a group.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> group_ids_;
  columnar::SelectionVector new_rows_;
  size_t group_count_ = 0;
  bool finished_ = false;
};

}  // namespace pocs::exec
