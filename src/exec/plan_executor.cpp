#include "exec/plan_executor.h"

#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "exec/hash_aggregator.h"
#include "exec/sorter.h"
#include "substrait/eval.h"

namespace pocs::exec {

using columnar::RecordBatch;
using columnar::RecordBatchPtr;
using columnar::Table;
using substrait::Rel;
using substrait::RelKind;

namespace {

// Flatten the chain: chain[0] is the Read, chain.back() is the root.
Status FlattenChain(const Rel& root, std::vector<const Rel*>* chain) {
  for (const Rel* r = &root; r != nullptr; r = r->input.get()) {
    chain->push_back(r);
    if (r->kind == RelKind::kRead && r->input) {
      return Status::InvalidArgument("read rel has an input");
    }
  }
  std::reverse(chain->begin(), chain->end());
  if ((*chain)[0]->kind != RelKind::kRead) {
    return Status::InvalidArgument("rel chain must bottom out at a Read");
  }
  return Status::OK();
}

Result<RecordBatchPtr> ApplyProject(const Rel& rel, const RecordBatch& batch,
                                    const columnar::SchemaPtr& out_schema) {
  std::vector<columnar::ColumnPtr> cols;
  cols.reserve(rel.expressions.size());
  for (const substrait::Expression& e : rel.expressions) {
    POCS_ASSIGN_OR_RETURN(columnar::ColumnPtr col,
                          substrait::Evaluate(e, batch));
    cols.push_back(std::move(col));
  }
  return columnar::MakeBatch(out_schema, std::move(cols));
}

// Cached per-RelKind registry metrics (rows in/out counters + a latency
// histogram of per-operator wall time for each executed plan).
struct KindRegistryMetrics {
  metrics::Counter* rows_in;
  metrics::Counter* rows_out;
  metrics::Histogram* seconds;
};

const KindRegistryMetrics& RegistryMetricsFor(RelKind kind) {
  static const auto all = [] {
    std::array<KindRegistryMetrics, ExecStats::kNumRelKinds> a{};
    auto& reg = metrics::Registry::Default();
    for (size_t i = 0; i < a.size(); ++i) {
      std::string prefix =
          "exec." +
          std::string(substrait::RelKindName(static_cast<RelKind>(i)));
      a[i] = {&reg.GetCounter(prefix + ".rows_in"),
              &reg.GetCounter(prefix + ".rows_out"),
              &reg.GetHistogram(prefix + ".seconds")};
    }
    return a;
  }();
  return all[static_cast<size_t>(kind)];
}

void MirrorToRegistry(const ExecStats& stats, double plan_seconds) {
  auto& reg = metrics::Registry::Default();
  static auto& plans = reg.GetCounter("exec.plans");
  static auto& rows_scanned = reg.GetCounter("exec.rows_scanned");
  static auto& rows_output = reg.GetCounter("exec.rows_output");
  static auto& batches = reg.GetCounter("exec.batches_scanned");
  static auto& seconds = reg.GetHistogram("exec.plan_seconds");
  plans.Increment();
  rows_scanned.Add(stats.rows_scanned);
  rows_output.Add(stats.rows_output);
  batches.Add(stats.batches_scanned);
  seconds.Record(plan_seconds);
  for (size_t i = 0; i < stats.operators.size(); ++i) {
    const OperatorCounters& oc = stats.operators[i];
    if (oc.invocations == 0) continue;
    const KindRegistryMetrics& m =
        RegistryMetricsFor(static_cast<RelKind>(i));
    m.rows_in->Add(oc.rows_in);
    m.rows_out->Add(oc.rows_out);
    m.seconds->Record(oc.seconds);
  }
}

}  // namespace

namespace {

// Typed bloom-probe loop: the type dispatch is hoisted out of the row
// loop and keys come from the raw value span (no per-row accessors).
template <typename V>
void BloomProbeLoop(const V* vals, const uint8_t* valid, size_t n,
                    const BloomFilter& bloom,
                    columnar::SelectionVector* sel) {
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    const uint64_t key = static_cast<uint64_t>(static_cast<int64_t>(vals[i]));
    if (bloom.MayContain(key)) sel->push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace

columnar::SelectionVector BloomSelectRows(const columnar::Column& col,
                                          const BloomFilter& bloom) {
  columnar::SelectionVector sel;
  sel.reserve(col.length());
  const size_t n = col.length();
  const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
  switch (col.type()) {
    case columnar::TypeKind::kInt64:
      BloomProbeLoop(col.i64_data().data(), valid, n, bloom, &sel);
      break;
    case columnar::TypeKind::kInt32:
    case columnar::TypeKind::kDate32:
      BloomProbeLoop(col.i32_data().data(), valid, n, bloom, &sel);
      break;
    default:
      // Non-integer key: keep every non-null row (bloom reduction is
      // advisory; dropping nothing is the safe direction).
      for (size_t i = 0; i < n; ++i) {
        if (valid != nullptr && valid[i] == 0) continue;
        sel.push_back(static_cast<uint32_t>(i));
      }
      break;
  }
  return sel;
}

Result<std::shared_ptr<Table>> ExecuteRel(const Rel& root,
                                          const ScanFactory& scan_factory,
                                          ExecStats* stats) {
  Stopwatch plan_timer;
  ExecStats local;

  std::vector<const Rel*> chain;
  POCS_RETURN_NOT_OK(FlattenChain(root, &chain));

  POCS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> source,
                        scan_factory(*chain[0]));

  // Identify the streamable prefix above the read: filters and projects.
  // The first blocking operator (aggregate/sort/fetch) splits the chain.
  size_t blocking = 1;
  while (blocking < chain.size() &&
         (chain[blocking]->kind == RelKind::kFilter ||
          chain[blocking]->kind == RelKind::kProject)) {
    ++blocking;
  }

  // Precompute output schemas for projects in the streaming prefix.
  std::vector<columnar::SchemaPtr> prefix_schemas(chain.size());
  for (size_t i = 1; i < blocking; ++i) {
    POCS_ASSIGN_OR_RETURN(prefix_schemas[i],
                          substrait::OutputSchema(*chain[i]));
  }

  // If the first blocking op is an aggregate or a sort+fetch pair we can
  // stream into an accumulator. Otherwise we materialize.
  std::unique_ptr<HashAggregator> aggregator;
  std::unique_ptr<TopNAccumulator> topn;
  size_t consumed_blocking = 0;  // how many blocking rels the streaming
                                 // accumulators absorb

  if (blocking < chain.size() && chain[blocking]->kind == RelKind::kAggregate) {
    POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr agg_input,
                          substrait::OutputSchema(
                              blocking > 1 ? *chain[blocking - 1] : *chain[0]));
    aggregator = std::make_unique<HashAggregator>(
        agg_input, chain[blocking]->group_keys, chain[blocking]->aggregates);
    consumed_blocking = 1;
  } else if (blocking + 1 < chain.size() &&
             chain[blocking]->kind == RelKind::kSort &&
             chain[blocking + 1]->kind == RelKind::kFetch &&
             chain[blocking + 1]->offset == 0 &&
             chain[blocking + 1]->count >= 0) {
    POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr sort_input,
                          substrait::OutputSchema(
                              blocking > 1 ? *chain[blocking - 1] : *chain[0]));
    topn = std::make_unique<TopNAccumulator>(
        sort_input, chain[blocking]->sort_fields,
        static_cast<size_t>(chain[blocking + 1]->count));
    consumed_blocking = 2;
  }
  // The streaming accumulator's rows are attributed to the rel it absorbs
  // (Aggregate, or Sort for the fused top-N).
  const RelKind accumulator_kind =
      aggregator ? RelKind::kAggregate : RelKind::kSort;

  auto intermediate = std::make_shared<Table>(
      prefix_schemas.empty() || blocking == 1 ? source->schema()
                                              : prefix_schemas[blocking - 1]);

  // ---- streaming phase ---------------------------------------------------
  // Batches flow with an optional selection (SelectedBatch): chained
  // filters intersect selections instead of compacting rows, and the
  // one materialization (TakeBatch) happens only at the first operator
  // that needs real values at every row — a Project, the top-N
  // accumulator, or the intermediate table. Hash aggregation consumes
  // the selection directly.
  while (true) {
    POCS_ASSIGN_OR_RETURN(SelectedBatch sb, source->NextSelected());
    RecordBatchPtr batch = std::move(sb.batch);
    if (!batch) break;
    local.rows_scanned += batch->num_rows();
    ++local.batches_scanned;
    std::optional<columnar::SelectionVector> sel = std::move(sb.selection);
    auto live_rows = [&] {
      return sel ? sel->size() : (batch ? batch->num_rows() : 0);
    };
    auto materialize = [&] {
      if (sel) {
        batch = columnar::TakeBatch(*batch, *sel);
        sel.reset();
      }
    };
    bool exhausted = live_rows() == 0;
    for (size_t i = 1; i < blocking && !exhausted; ++i) {
      const Rel& rel = *chain[i];
      OperatorCounters& oc = local.ForKind(rel.kind);
      Stopwatch op_timer;
      oc.rows_in += live_rows();
      if (rel.kind == RelKind::kFilter) {
        POCS_ASSIGN_OR_RETURN(
            columnar::SelectionVector out_sel,
            substrait::FilterSelection(rel.predicate, *batch,
                                       sel ? &*sel : nullptr));
        sel = std::move(out_sel);
      } else {
        materialize();
        POCS_ASSIGN_OR_RETURN(batch,
                              ApplyProject(rel, *batch, prefix_schemas[i]));
      }
      oc.rows_out += live_rows();
      oc.seconds += op_timer.ElapsedSeconds();
      ++oc.invocations;
      exhausted = live_rows() == 0;
    }
    if (exhausted) continue;
    if (aggregator || topn) {
      OperatorCounters& oc = local.ForKind(accumulator_kind);
      Stopwatch op_timer;
      oc.rows_in += live_rows();
      if (aggregator) {
        POCS_RETURN_NOT_OK(aggregator->Consume(*batch, sel ? &*sel : nullptr));
      } else {
        materialize();
        POCS_RETURN_NOT_OK(topn->Consume(*batch));
      }
      oc.seconds += op_timer.ElapsedSeconds();
      ++oc.invocations;
    } else {
      materialize();
      intermediate->AppendBatch(std::move(batch));
    }
  }

  std::shared_ptr<Table> current;
  if (aggregator || topn) {
    OperatorCounters& oc = local.ForKind(accumulator_kind);
    Stopwatch op_timer;
    RecordBatchPtr result;
    if (aggregator) {
      POCS_ASSIGN_OR_RETURN(result, aggregator->Finish());
    } else {
      POCS_ASSIGN_OR_RETURN(result, topn->Finish());
    }
    oc.rows_out += result->num_rows();
    oc.seconds += op_timer.ElapsedSeconds();
    current = std::make_shared<Table>(result->schema());
    current->AppendBatch(std::move(result));
  } else {
    current = intermediate;
  }

  // ---- materialized phase: remaining blocking operators ------------------
  for (size_t i = blocking + consumed_blocking; i < chain.size(); ++i) {
    const Rel& rel = *chain[i];
    OperatorCounters& oc = local.ForKind(rel.kind);
    Stopwatch op_timer;
    oc.rows_in += current->num_rows();
    switch (rel.kind) {
      case RelKind::kFilter: {
        auto next = std::make_shared<Table>(current->schema());
        for (const RecordBatchPtr& b : current->batches()) {
          POCS_ASSIGN_OR_RETURN(RecordBatchPtr filtered,
                                substrait::FilterBatch(rel.predicate, *b));
          if (filtered->num_rows() > 0) next->AppendBatch(std::move(filtered));
        }
        current = next;
        break;
      }
      case RelKind::kProject: {
        POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr out_schema,
                              substrait::OutputSchema(rel));
        auto next = std::make_shared<Table>(out_schema);
        for (const RecordBatchPtr& b : current->batches()) {
          POCS_ASSIGN_OR_RETURN(RecordBatchPtr projected,
                                ApplyProject(rel, *b, out_schema));
          next->AppendBatch(std::move(projected));
        }
        current = next;
        break;
      }
      case RelKind::kAggregate: {
        HashAggregator agg(current->schema(), rel.group_keys, rel.aggregates);
        for (const RecordBatchPtr& b : current->batches()) {
          POCS_RETURN_NOT_OK(agg.Consume(*b));
        }
        POCS_ASSIGN_OR_RETURN(RecordBatchPtr result, agg.Finish());
        current = std::make_shared<Table>(result->schema());
        current->AppendBatch(std::move(result));
        break;
      }
      case RelKind::kSort: {
        POCS_ASSIGN_OR_RETURN(RecordBatchPtr sorted,
                              SortTable(*current, rel.sort_fields));
        current = std::make_shared<Table>(sorted->schema());
        current->AppendBatch(std::move(sorted));
        break;
      }
      case RelKind::kFetch: {
        POCS_ASSIGN_OR_RETURN(current,
                              FetchTable(*current, rel.offset, rel.count));
        break;
      }
      case RelKind::kRead:
        return Status::Internal("read rel above the leaf");
    }
    oc.rows_out += current->num_rows();
    oc.seconds += op_timer.ElapsedSeconds();
    ++oc.invocations;
  }
  local.rows_output = current->num_rows();

  MirrorToRegistry(local, plan_timer.ElapsedSeconds());
  if (stats) *stats = local;
  return current;
}

}  // namespace pocs::exec
