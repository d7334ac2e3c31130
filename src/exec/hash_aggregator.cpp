#include "exec/hash_aggregator.h"

#include <algorithm>
#include <string_view>
#include <type_traits>

#include "columnar/kernels.h"
#include "substrait/eval.h"
#include "substrait/rel.h"

namespace pocs::exec {

using columnar::Column;
using columnar::ColumnPtr;
using columnar::Field;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::RecordBatch;
using columnar::RecordBatchPtr;
using columnar::TypeKind;
using substrait::AggFunc;
using substrait::AggregateSpec;

namespace {

constexpr size_t kInitialSlots = 64;

// A bool column's bytes read as 0/1.
template <typename T>
struct BoolSpan {
  const uint8_t* values;
  T operator[](size_t i) const { return static_cast<T>(values[i] != 0); }
};

// Calls f with a typed view of a non-string argument column read as T.
// T = int64_t serves integer SUMs and integer/bool MIN/MAX; T = double
// serves float SUM and AVG, where a string argument reads as 0, as
// Column::AsDouble reads it.
template <typename T, typename F>
void VisitValues(const Column& col, F&& f) {
  switch (col.type()) {
    case TypeKind::kBool:
      f(BoolSpan<T>{col.bool_data().data()});
      return;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      f(columnar::ValueSpan<T, int32_t>{col.i32_data().data()});
      return;
    case TypeKind::kInt64:
      f(columnar::ValueSpan<T, int64_t>{col.i64_data().data()});
      return;
    case TypeKind::kFloat64:
    case TypeKind::kString:
      if constexpr (std::is_same_v<T, double>) {
        if (col.type() == TypeKind::kString) {
          f(columnar::Splat<T>{0.0});
        } else {
          f(columnar::ValueSpan<T, double>{col.f64_data().data()});
        }
      }
      return;
  }
}

// Calls f(group, value) for every live row whose argument is not NULL, in
// row order: `groups[j]` is the group of the j-th live row, which is row
// `sel[j]` (row j without a selection).
template <typename View, typename F>
void ForEachLive(View values, const uint8_t* valid, const uint32_t* sel,
                 const uint32_t* groups, size_t live, F&& f) {
  if (sel == nullptr) {
    if (valid == nullptr) {
      for (size_t j = 0; j < live; ++j) f(groups[j], values[j]);
    } else {
      for (size_t j = 0; j < live; ++j) {
        if (valid[j] != 0) f(groups[j], values[j]);
      }
    }
  } else if (valid == nullptr) {
    for (size_t j = 0; j < live; ++j) f(groups[j], values[sel[j]]);
  } else {
    for (size_t j = 0; j < live; ++j) {
      const uint32_t row = sel[j];
      if (valid[row] != 0) f(groups[j], values[row]);
    }
  }
}

// Running MIN (kMin) or MAX per group: the first non-NULL value, then each
// value that compares strictly better (so NaN never replaces, and a
// leading NaN stays). `count` doubles as the has-a-value flag.
template <bool kMin, typename View, typename Best>
void FoldExtremes(View values, const uint8_t* valid, const uint32_t* sel,
                  const uint32_t* groups, size_t live, int64_t* count,
                  Best* best) {
  ForEachLive(values, valid, sel, groups, live, [&](uint32_t g, auto v) {
    if (count[g]++ == 0 || (kMin ? v < best[g] : best[g] < v)) best[g] = v;
  });
}

enum class Store { kNone, kI64, kF64, kStr };

// Which Accumulator vector an aggregate keeps its running value in.
Store StoreFor(const AggregateSpec& agg) {
  switch (agg.func) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Store::kNone;
    case AggFunc::kSum:
      return agg.OutputType() == TypeKind::kInt64 ? Store::kI64 : Store::kF64;
    case AggFunc::kAvg:
      return Store::kF64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      break;
  }
  if (agg.argument.type == TypeKind::kString) return Store::kStr;
  return agg.argument.type == TypeKind::kFloat64 ? Store::kF64 : Store::kI64;
}

// Calls f(j, row) for every live row j: row rows[j], or row j without a
// selection.
template <typename F>
void ForEachRow(const uint32_t* rows, size_t live, F&& f) {
  if (rows == nullptr) {
    for (size_t j = 0; j < live; ++j) f(j, j);
  } else {
    for (size_t j = 0; j < live; ++j) f(j, size_t{rows[j]});
  }
}

// True iff every live row's cell of `incoming` equals the cell of
// `stored` at the row's group, groups[j] for live row j. NULL equals
// NULL; NaN equals nothing, itself included.
template <typename View>
bool CellsMatch(View stored, const uint8_t* stored_valid, View incoming,
                const uint8_t* valid, const uint32_t* rows,
                const uint32_t* groups, size_t live) {
  bool same = true;
  if (stored_valid == nullptr && valid == nullptr) {
    ForEachRow(rows, live, [&](size_t j, size_t row) {
      same &= stored[groups[j]] == incoming[row];
    });
  } else {
    ForEachRow(rows, live, [&](size_t j, size_t row) {
      const uint32_t g = groups[j];
      const bool stored_null = stored_valid != nullptr && stored_valid[g] == 0;
      const bool null = valid != nullptr && valid[row] == 0;
      same &= stored_null == null && (null || stored[g] == incoming[row]);
    });
  }
  return same;
}

// CellsMatch over one key column, typed once for the whole batch.
bool KeyColumnMatches(const Column& stored, const Column& incoming,
                      const uint32_t* rows, const uint32_t* groups,
                      size_t live) {
  const uint8_t* stored_valid =
      stored.has_nulls() ? stored.validity().data() : nullptr;
  const uint8_t* valid =
      incoming.has_nulls() ? incoming.validity().data() : nullptr;
  // CellsMatch over the typed view `view_of` gives each side's values.
  auto values = [&](auto view_of) {
    return CellsMatch(view_of(stored), stored_valid, view_of(incoming), valid,
                      rows, groups, live);
  };
  switch (stored.type()) {
    case TypeKind::kBool:
      return values(
          [](const Column& c) { return BoolSpan<bool>{c.bool_data().data()}; });
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      return values([](const Column& c) {
        return columnar::ValueSpan<int32_t, int32_t>{c.i32_data().data()};
      });
    case TypeKind::kInt64:
      return values([](const Column& c) {
        return columnar::ValueSpan<int64_t, int64_t>{c.i64_data().data()};
      });
    case TypeKind::kFloat64:
      return values([](const Column& c) {
        return columnar::ValueSpan<double, double>{c.f64_data().data()};
      });
    case TypeKind::kString:
      return values([](const Column& c) { return columnar::StringSpan(c); });
  }
  return false;
}

}  // namespace

HashAggregator::HashAggregator(columnar::SchemaPtr input_schema,
                               std::vector<int> group_keys,
                               std::vector<AggregateSpec> aggregates)
    : input_schema_(std::move(input_schema)),
      group_keys_(std::move(group_keys)),
      aggregates_(std::move(aggregates)) {
  std::vector<Field> fields;
  for (int key : group_keys_) {
    fields.push_back(input_schema_->field(key));
    key_store_.push_back(MakeColumn(input_schema_->field(key).type));
  }
  for (const AggregateSpec& agg : aggregates_) {
    fields.push_back({agg.output_name, agg.OutputType()});
  }
  output_schema_ = MakeSchema(std::move(fields));
  accumulators_.resize(aggregates_.size());
}

void HashAggregator::ProbeByHash(const std::vector<ColumnPtr>& keys,
                                 const uint32_t* rows, size_t live) {
  new_rows_.clear();
  const uint64_t* hashes = hashes_.data();
  uint32_t* groups = group_ids_.data();
  // Unequal to the first row's hash, so the first row probes.
  uint64_t last_hash = ~hashes[0];
  uint32_t group = 0;
  for (size_t j = 0; j < live; ++j) {
    const uint64_t hash = hashes[j];
    if (hash != last_hash) {
      last_hash = hash;
      // Most probes end at their home slot; the rest walk the chain.
      const Slot home = slots_[hash & (slots_.size() - 1)];
      group = home.hash == hash ? home.group : kEmptySlot;
      if (group == kEmptySlot) {
        group = FindOrAddGroup(hash, rows != nullptr ? rows[j] : j);
      }
    }
    groups[j] = group;
  }
  if (new_rows_.empty()) return;
  for (size_t k = 0; k < keys.size(); ++k) {
    key_store_[k]->AppendRange(*columnar::Take(*keys[k], new_rows_), 0,
                               new_rows_.size());
  }
}

uint32_t HashAggregator::FindOrAddGroup(uint64_t hash, size_t row) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].group != kEmptySlot && slots_[i].hash != hash) {
    i = (i + 1) & mask;
  }
  if (slots_[i].group != kEmptySlot) return slots_[i].group;
  new_rows_.push_back(static_cast<uint32_t>(row));
  return AddGroup(i, hash);
}

bool HashAggregator::KeysMatch(const std::vector<ColumnPtr>& keys,
                               const uint32_t* rows, size_t live) const {
  for (size_t k = 0; k < keys.size(); ++k) {
    if (!KeyColumnMatches(*key_store_[k], *keys[k], rows, group_ids_.data(),
                          live)) {
      return false;
    }
  }
  return true;
}

void HashAggregator::Renumber(const std::vector<ColumnPtr>& keys,
                              const uint32_t* rows, size_t live,
                              size_t first_new) {
  for (auto& stored : key_store_) {
    auto kept = MakeColumn(stored->type());
    kept->AppendRange(*stored, 0, first_new);
    stored = std::move(kept);
  }
  for (Slot& slot : slots_) {
    if (slot.group != kEmptySlot && slot.group >= first_new) {
      slot.group = kEmptySlot;
    }
  }
  Rehash(slots_.size());
  group_count_ = first_new;
  const std::vector<ColumnPtr> stored(key_store_.begin(), key_store_.end());
  ForEachRow(rows, live, [&](size_t j, size_t row) {
    group_ids_[j] = GroupFor(stored, keys, row, hashes_[j]);
  });
}

uint32_t HashAggregator::GroupFor(const std::vector<ColumnPtr>& stored,
                                  const std::vector<ColumnPtr>& keys,
                                  size_t row, uint64_t hash) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i].group != kEmptySlot; i = (i + 1) & mask) {
    const Slot slot = slots_[i];
    if (slot.hash == hash &&
        columnar::RowsEqual(stored, slot.group, keys, row)) {
      return slot.group;
    }
  }
  // New group, numbered in first-appearance order, in the free slot the
  // probe stopped at.
  for (size_t k = 0; k < keys.size(); ++k) {
    key_store_[k]->AppendFrom(*keys[k], row);
  }
  return AddGroup(i, hash);
}

uint32_t HashAggregator::AddGroup(size_t i, uint64_t hash) {
  const auto group = static_cast<uint32_t>(group_count_++);
  slots_[i] = Slot{hash, group};
  if (2 * group_count_ > slots_.size()) Rehash(2 * slots_.size());
  return group;
}

void HashAggregator::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{0, kEmptySlot});
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.group == kEmptySlot) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].group != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void HashAggregator::GrowAccumulators() {
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    Accumulator& acc = accumulators_[a];
    if (acc.count.size() == group_count_) continue;
    acc.count.resize(group_count_, 0);
    switch (StoreFor(aggregates_[a])) {
      case Store::kNone: break;
      case Store::kI64: acc.i64.resize(group_count_, 0); break;
      case Store::kF64: acc.f64.resize(group_count_, 0.0); break;
      case Store::kStr: acc.str.resize(group_count_); break;
    }
  }
}

Status HashAggregator::Consume(const RecordBatch& batch) {
  return Consume(batch, nullptr);
}

Status HashAggregator::Consume(const RecordBatch& batch,
                               const columnar::SelectionVector* sel) {
  if (finished_) return Status::Internal("aggregator already finished");
  const size_t n = batch.num_rows();
  if (n == 0 || (sel != nullptr && sel->empty())) return Status::OK();

  // Evaluate aggregate arguments once per batch (vectorized).
  std::vector<ColumnPtr> arg_cols(aggregates_.size());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggregateSpec& agg = aggregates_[a];
    if (agg.func == AggFunc::kCountStar) continue;
    POCS_ASSIGN_OR_RETURN(arg_cols[a],
                          substrait::Evaluate(agg.argument, batch));
    if (arg_cols[a]->type() != agg.argument.type) {
      return Status::InvalidArgument(
          std::string(substrait::AggFuncName(agg.func)) +
          ": argument evaluated to " +
          std::string(columnar::TypeName(arg_cols[a]->type())) +
          ", declared " + std::string(columnar::TypeName(agg.argument.type)));
    }
  }

  // Pass 1: the group id of every live row.
  const size_t live = sel != nullptr ? sel->size() : n;
  group_ids_.resize(live);
  if (group_keys_.empty()) {
    group_count_ = 1;  // global aggregate: single group
    std::fill(group_ids_.begin(), group_ids_.end(), 0);
  } else {
    std::vector<ColumnPtr> keys;
    for (int k : group_keys_) keys.push_back(batch.column(k));
    columnar::HashRows(keys, &hashes_, sel);
    if (slots_.empty()) slots_.assign(kInitialSlots, Slot{0, kEmptySlot});
    const uint32_t* rows = sel != nullptr ? sel->data() : nullptr;
    const size_t first_new = group_count_;
    ProbeByHash(keys, rows, live);
    if (!KeysMatch(keys, rows, live)) Renumber(keys, rows, live, first_new);
  }
  GrowAccumulators();

  // Pass 2: one typed update loop per aggregate.
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    Update(aggregates_[a], arg_cols[a].get(), sel, &accumulators_[a]);
  }
  return Status::OK();
}

void HashAggregator::Update(const AggregateSpec& agg, const Column* arg,
                            const columnar::SelectionVector* sel,
                            Accumulator* acc) const {
  const uint32_t* groups = group_ids_.data();
  const size_t live = group_ids_.size();
  int64_t* count = acc->count.data();
  if (agg.func == AggFunc::kCountStar) {
    for (size_t j = 0; j < live; ++j) ++count[groups[j]];
    return;
  }
  const uint8_t* valid = arg->has_nulls() ? arg->validity().data() : nullptr;
  const uint32_t* rows = sel != nullptr ? sel->data() : nullptr;
  switch (StoreFor(agg)) {
    case Store::kNone:  // COUNT(expr): non-null rows
      ForEachLive(columnar::Splat<int64_t>{0}, valid, rows, groups, live,
                  [&](uint32_t g, int64_t) { ++count[g]; });
      return;
    case Store::kI64: {
      int64_t* value = acc->i64.data();
      VisitValues<int64_t>(*arg, [&](auto values) {
        if (agg.func == AggFunc::kSum) {
          ForEachLive(values, valid, rows, groups, live,
                      [&](uint32_t g, int64_t v) {
                        ++count[g];
                        value[g] = columnar::WrapAdd(value[g], v);
                      });
        } else if (agg.func == AggFunc::kMin) {
          FoldExtremes<true>(values, valid, rows, groups, live, count, value);
        } else {
          FoldExtremes<false>(values, valid, rows, groups, live, count, value);
        }
      });
      return;
    }
    case Store::kF64: {
      double* value = acc->f64.data();
      VisitValues<double>(*arg, [&](auto values) {
        if (agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg) {
          ForEachLive(values, valid, rows, groups, live,
                      [&](uint32_t g, double v) {
                        ++count[g];
                        value[g] += v;
                      });
        } else if (agg.func == AggFunc::kMin) {
          FoldExtremes<true>(values, valid, rows, groups, live, count, value);
        } else {
          FoldExtremes<false>(values, valid, rows, groups, live, count, value);
        }
      });
      return;
    }
    case Store::kStr: {
      const columnar::StringSpan values(*arg);
      std::string* best = acc->str.data();
      if (agg.func == AggFunc::kMin) {
        FoldExtremes<true>(values, valid, rows, groups, live, count, best);
      } else {
        FoldExtremes<false>(values, valid, rows, groups, live, count, best);
      }
      return;
    }
  }
}

Result<RecordBatchPtr> HashAggregator::Finish() {
  if (finished_) return Status::Internal("aggregator already finished");
  finished_ = true;

  // SQL semantics: a global aggregate (no GROUP BY) over zero rows still
  // produces one row (COUNT = 0, other aggregates NULL).
  if (group_keys_.empty() && group_count_ == 0) {
    group_count_ = 1;
    GrowAccumulators();
  }

  std::vector<ColumnPtr> out;
  for (auto& key_col : key_store_) out.push_back(key_col);

  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggregateSpec& agg = aggregates_[a];
    const Accumulator& acc = accumulators_[a];
    const TypeKind type = agg.OutputType();
    auto col = MakeColumn(type);
    col->Reserve(group_count_);
    for (size_t g = 0; g < group_count_; ++g) {
      const int64_t count = acc.count[g];
      if (agg.func == AggFunc::kCount || agg.func == AggFunc::kCountStar) {
        col->AppendInt64(count);
      } else if (count == 0) {
        col->AppendNull();
      } else if (agg.func == AggFunc::kAvg) {
        col->AppendFloat64(acc.f64[g] / static_cast<double>(count));
      } else if (type == TypeKind::kString) {
        col->AppendString(acc.str[g]);
      } else if (type == TypeKind::kFloat64) {
        col->AppendFloat64(acc.f64[g]);
      } else if (type == TypeKind::kInt64) {
        col->AppendInt64(acc.i64[g]);
      } else if (type == TypeKind::kBool) {
        col->AppendBool(acc.i64[g] != 0);
      } else {
        col->AppendInt32(static_cast<int32_t>(acc.i64[g]));
      }
    }
    out.push_back(std::move(col));
  }
  return columnar::MakeBatch(output_schema_, std::move(out));
}

}  // namespace pocs::exec
