#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <unordered_map>

#include "columnar/kernels.h"
#include "common/bloom.h"
#include "common/stopwatch.h"
#include "engine/analyzer.h"
#include "engine/optimizer.h"
#include "engine/two_phase.h"
#include "exec/plan_executor.h"
#include "sql/parser.h"

namespace pocs::engine {

using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using columnar::Table;
using connector::PageSourceStats;
using connector::QueryStats;

QueryEngine::QueryEngine(EngineConfig config) : config_(config) {
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads);
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  }
}

void QueryEngine::RegisterConnector(
    std::shared_ptr<connector::Connector> connector) {
  connectors_[connector->id()] = std::move(connector);
}

connector::Connector* QueryEngine::GetConnector(const std::string& id) const {
  auto it = connectors_.find(id);
  return it == connectors_.end() ? nullptr : it->second.get();
}

void QueryEngine::AddEventListener(
    std::shared_ptr<connector::EventListener> listener) {
  listeners_.push_back(std::move(listener));
}

namespace {

using substrait::Rel;
using substrait::RelKind;

// Releases an admission slot on every exit path of Execute.
struct TicketReleaser {
  std::shared_ptr<AdmissionTicket> ticket;
  ~TicketReleaser() {
    if (ticket) ticket->Release();
  }
};

// ---- plan → Rel compilation -------------------------------------------------
// The engine runs its share of a plan through exec::ExecuteRel, the
// executor storage and the connector fallback use: the per-split residual
// and the merge stage are Rel chains whose Read leaf is bound to a split's
// pages or to the per-split outputs.

std::unique_ptr<Rel> MakeRel(RelKind kind, std::unique_ptr<Rel> input) {
  auto rel = std::make_unique<Rel>();
  rel->kind = kind;
  rel->input = std::move(input);
  return rel;
}

std::unique_ptr<Rel> ReadRel(SchemaPtr schema) {
  auto rel = MakeRel(RelKind::kRead, nullptr);
  rel->base_schema = std::move(schema);
  return rel;
}

std::unique_ptr<Rel> AggregateRel(std::unique_ptr<Rel> input,
                                  std::vector<int> group_keys,
                                  std::vector<substrait::AggregateSpec> aggs,
                                  substrait::AggPhase phase) {
  auto rel = MakeRel(RelKind::kAggregate, std::move(input));
  rel->group_keys = std::move(group_keys);
  rel->aggregates = std::move(aggs);
  rel->agg_phase = phase;
  return rel;
}

// Appends one residual plan node on top of `input`. A top-N becomes
// Sort + Fetch, which the executor fuses into a bounded accumulator.
Result<std::unique_ptr<Rel>> AppendNode(std::unique_ptr<Rel> input,
                                        const PlanNode& node) {
  switch (node.kind) {
    case NodeKind::kFilter: {
      auto rel = MakeRel(RelKind::kFilter, std::move(input));
      rel->predicate = node.predicate;
      return rel;
    }
    case NodeKind::kProject: {
      auto rel = MakeRel(RelKind::kProject, std::move(input));
      rel->expressions = node.expressions;
      rel->output_names = node.output_names;
      return rel;
    }
    case NodeKind::kSort: {
      auto rel = MakeRel(RelKind::kSort, std::move(input));
      rel->sort_fields = node.sort_fields;
      return rel;
    }
    case NodeKind::kTopN: {
      auto sort = MakeRel(RelKind::kSort, std::move(input));
      sort->sort_fields = node.sort_fields;
      auto fetch = MakeRel(RelKind::kFetch, std::move(sort));
      fetch->count = node.limit;
      return fetch;
    }
    case NodeKind::kLimit: {
      auto fetch = MakeRel(RelKind::kFetch, std::move(input));
      fetch->count = node.limit;
      return fetch;
    }
    default:
      return Status::Internal("unexpected " +
                              std::string(NodeKindName(node.kind)) +
                              " node in the residual plan");
  }
}

// Final phase of a split aggregation, grouped by `keys`, over partials
// whose first `n_partial_keys` columns are keys and whose partial
// aggregates follow; then the projection recovering the original
// aggregates (AVG = sum / count).
Result<std::unique_ptr<Rel>> AppendFinalAggregation(std::unique_ptr<Rel> input,
                                                    const PlanNode& agg,
                                                    std::vector<int> keys,
                                                    size_t n_partial_keys) {
  const size_t n_keys = keys.size();
  auto final_agg =
      AggregateRel(std::move(input), std::move(keys),
                   FinalAggSpecs(agg.aggregates, n_partial_keys),
                   substrait::AggPhase::kFinal);
  POCS_ASSIGN_OR_RETURN(SchemaPtr final_schema,
                        substrait::OutputSchema(*final_agg));
  auto finalize = MakeRel(RelKind::kProject, std::move(final_agg));
  FinalizeProjection(agg.aggregates, n_keys, *final_schema,
                     &finalize->expressions, &finalize->output_names);
  return finalize;
}

// Bottom→top chain of a plan: [scan, ..., root].
std::vector<PlanNode*> Chain(PlanNode* root) {
  std::vector<PlanNode*> chain;
  for (PlanNode* n = root; n; n = n->input.get()) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

// ---- the join probe ---------------------------------------------------------

// Sign-extended 64-bit join key for one row; false when the value is null
// (never joins) or the column has no integer join-key form.
bool JoinKeyAt(const columnar::Column& col, size_t row, int64_t* out) {
  if (col.IsNull(row)) return false;
  switch (col.type()) {
    case columnar::TypeKind::kInt64:
      *out = col.GetInt64(row);
      return true;
    case columnar::TypeKind::kInt32:
    case columnar::TypeKind::kDate32:
      *out = col.GetInt32(row);
      return true;
    default:
      return false;
  }
}

// The join's build side: the dimension rows with an exact hash index over
// their join keys. Every probing source of the query shares it and sums
// its work here.
struct JoinProbe {
  RecordBatchPtr build_rows;
  std::unordered_map<int64_t, std::vector<uint32_t>> index;
  int key_column = -1;  // the join key's column in the probed batches
  SchemaPtr schema;     // the probed columns, then the build columns

  std::atomic<uint64_t> rows_in{0};
  std::atomic<uint64_t> rows_out{0};
  std::atomic<double> seconds{0};  // excludes the probed sources' Next()
};

// The join's exact-index probe as a BatchSource decorator: each inner
// batch is matched against the build index — dropping bloom false
// positives and non-matching keys — and every match becomes one output
// row: the probed row's columns, then the matched build row's.
class JoinProbeSource final : public exec::BatchSource {
 public:
  JoinProbeSource(std::unique_ptr<exec::BatchSource> inner, JoinProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  SchemaPtr schema() const override { return probe_.schema; }

  Result<RecordBatchPtr> Next() override {
    while (true) {
      POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch, inner_->Next());
      if (!batch) return batch;
      Stopwatch timer;
      const columnar::Column& keys = *batch->column(probe_.key_column);
      columnar::SelectionVector sel;        // matching probed rows
      columnar::SelectionVector build_sel;  // their build rows, in step
      for (size_t r = 0; r < batch->num_rows(); ++r) {
        int64_t key;
        if (!JoinKeyAt(keys, r, &key)) continue;
        auto it = probe_.index.find(key);
        if (it == probe_.index.end()) continue;
        for (uint32_t build_row : it->second) {
          sel.push_back(static_cast<uint32_t>(r));
          build_sel.push_back(build_row);
        }
      }
      RecordBatchPtr joined;
      if (!sel.empty()) {
        std::vector<columnar::ColumnPtr> cols =
            columnar::TakeBatch(*batch, sel)->columns();
        for (const columnar::ColumnPtr& col : probe_.build_rows->columns()) {
          cols.push_back(columnar::Take(*col, build_sel));
        }
        joined = columnar::MakeBatch(probe_.schema, std::move(cols));
      }
      probe_.rows_in += batch->num_rows();
      probe_.rows_out += sel.size();
      probe_.seconds += timer.ElapsedSeconds();
      if (joined) return joined;
    }
  }

 private:
  std::unique_ptr<exec::BatchSource> inner_;
  JoinProbe& probe_;
};

// `inner` behind the join probe, when there is one.
std::unique_ptr<exec::BatchSource> Probed(
    std::unique_ptr<exec::BatchSource> inner, JoinProbe* probe) {
  if (!probe) return inner;
  return std::make_unique<JoinProbeSource>(std::move(inner), *probe);
}

// ---- the split runner -------------------------------------------------------

// One split's connector pages as an executor source. The page source
// stays owned by the runner, which folds its stats after the run.
class PageBatchSource final : public exec::BatchSource {
 public:
  explicit PageBatchSource(connector::PageSource* pages) : pages_(pages) {}
  SchemaPtr schema() const override { return pages_->schema(); }
  Result<RecordBatchPtr> Next() override { return pages_->Next(); }

 private:
  connector::PageSource* pages_;
};

// Runs every scan of a query — the linear plan's, and both sides of a
// join — and keeps the books they fold into.
struct SplitRunner {
  SplitRunner(connector::Connector& c, ThreadPool& p, const EngineConfig& cfg,
              QueryStats* m)
      : conn(c), pool(p), config(cfg), metrics(m) {}

  connector::Connector& conn;
  ThreadPool& pool;
  const EngineConfig& config;
  QueryStats* metrics;

  SplitStageTotals totals;      // the modelled scan stage, all scans
  double residual_seconds = 0;  // engine compute outside the merge stage

  // Plans `scan`'s splits and runs `residual` over each split's pages —
  // behind `probe_side` when given — on the pool under the per-query
  // in-flight cap. Returns the outputs in split order.
  Result<std::shared_ptr<Table>> Run(const PlanNode& scan, const Rel& residual,
                                     JoinProbe* probe_side) {
    POCS_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          substrait::OutputSchema(residual));
    // Runs after pushdown negotiation, so the connector can prune splits
    // against the accepted predicates (stats-based, zero data RPCs) and
    // pin pushed blooms to each object's current version.
    POCS_ASSIGN_OR_RETURN(connector::SplitPlan plan,
                          conn.GetSplits(scan.table, scan.scan_spec));
    metrics->splits += plan.splits.size();
    metrics->splits_planned += plan.splits_planned;
    metrics->splits_pruned += plan.splits_pruned;
    metrics->metadata_cache_hits += plan.metadata_cache_hits;
    metrics->metadata_cache_misses += plan.metadata_cache_misses;
    metrics->metadata_cache_stale += plan.metadata_cache_stale;
    metrics->metadata_cache_errors += plan.metadata_cache_errors;
    totals.splits += plan.splits.size();

    std::vector<SplitRun> runs(plan.splits.size());
    SplitThrottle throttle(config.max_inflight_splits);
    auto run_split = [&](size_t s) {
      // Backpressure: at most max_inflight_splits of this query's splits
      // hold a worker (and a storage dispatch) at once. Acquired inside
      // the task body, so a blocked acquire always implies other permits
      // are held by running workers — progress is guaranteed.
      SplitThrottle::Permit permit = throttle.Acquire();
      runs[s].status =
          RunSplit(scan, plan.splits[s], residual, probe_side, &runs[s]);
    };
    if (pool.num_threads() > 1) {
      pool.ParallelFor(runs.size(), run_split);
    } else {
      // One worker would run them one by one while this thread waits;
      // running them here keeps a split's pages in this thread's
      // allocator arena (handing them over cost a join ~7k page faults).
      for (size_t s = 0; s < runs.size(); ++s) run_split(s);
    }

    auto out = std::make_shared<Table>(out_schema);
    for (const SplitRun& run : runs) {
      POCS_RETURN_NOT_OK(run.status);
      const PageSourceStats& s = run.stats;
      totals.bytes_moved += s.bytes_moved();
      totals.messages += 2;  // request + response per split
      totals.storage_compute_seconds += s.storage_compute_seconds;
      totals.media_read_seconds += s.media_read_seconds;
      *metrics += s;
      // Compute-side residual work: operators as measured, plus the page
      // source's result decode. Time spent inside the page source
      // otherwise is the modelled scan stage's, so never counted.
      residual_seconds += run.compute_seconds + s.decode_seconds;
      for (const RecordBatchPtr& batch : run.data->batches()) {
        out->AppendBatch(batch);
      }
    }
    return out;
  }

 private:
  struct SplitRun {
    std::shared_ptr<Table> data;
    PageSourceStats stats;
    double compute_seconds = 0;
    Status status;
  };

  Status RunSplit(const PlanNode& scan, const connector::Split& split,
                  const Rel& residual, JoinProbe* probe_side, SplitRun* run) {
    POCS_ASSIGN_OR_RETURN(
        std::unique_ptr<connector::PageSource> pages,
        conn.CreatePageSource(scan.table, split, scan.scan_spec));
    auto source =
        [&](const Rel&) -> Result<std::unique_ptr<exec::BatchSource>> {
      return Probed(std::make_unique<PageBatchSource>(pages.get()), probe_side);
    };
    exec::ExecStats exec_stats;
    POCS_ASSIGN_OR_RETURN(run->data,
                          exec::ExecuteRel(residual, source, &exec_stats));
    for (const exec::OperatorCounters& oc : exec_stats.operators) {
      run->compute_seconds += oc.seconds;
    }
    run->stats = pages->stats();
    return Status::OK();
  }
};

// Deterministic seed of pushed join-key blooms ("pocsjoin"): plans — and
// therefore plan fingerprints and replay — are identical across runs.
constexpr uint64_t kJoinBloomSeed = 0x706f63736a6f696eULL;

// How a join runs in the shared per-split + merge shape.
struct JoinStages {
  JoinProbe probe;
  // Phase-split aggregation: each split computes partials grouped by
  // `partial_keys` (fact-schema indices, join key included) and the merge
  // probes them. Otherwise the probe sits on every split's pages.
  bool probe_in_merge = false;
  std::vector<int> partial_keys;
  std::vector<int> final_keys;  // the merge's group keys, after the probe
};

// Prepares a plan's join (DESIGN.md §14):
//   1. negotiate the build (dimension) side's pushdown, scan it through
//      the split runner and index its join keys exactly;
//   2. offer a seeded bloom over the build keys to the fact-side
//      connector, so storage drops non-matching rows before bytes move;
//   3. when the aggregation directly above the join has fact-side
//      arguments, no residual sits between it and the scan, and the build
//      keys are unique, split it into phases: the per-split partial
//      (offered to storage) groups by {fact keys ∪ join key}, and the
//      merge probes the partials, recovering dim-referenced group keys
//      from the matched build row (functionally dependent on the key);
//   4. otherwise every split probes its pages and runs the residual over
//      the joined rows.
// Rejected or faulted pushdowns degrade transparently: the connector's
// fallback re-runs the identical pushed plan engine-side, and a rejected
// partial phase is run per split by the engine with the same operator
// tree, so every path agrees bit-for-bit.
Status PrepareJoin(PlanNode* join, PlanNode* scan, PlanNode* agg,
                   bool residual_empty, SplitRunner* runner,
                   JoinStages* out) {
  QueryStats* metrics = runner->metrics;
  connector::Connector& conn = runner->conn;
  JoinProbe& probe = out->probe;

  // ---- build side -----------------------------------------------------------
  POCS_ASSIGN_OR_RETURN(LocalOptimizerResult build_local,
                        RunConnectorOptimizer(join->build, conn));
  join->build = build_local.plan;
  metrics->pushdown_decisions.insert(metrics->pushdown_decisions.end(),
                                     build_local.decisions.begin(),
                                     build_local.decisions.end());
  std::vector<PlanNode*> bchain = Chain(join->build.get());
  if (bchain.empty() || bchain[0]->kind != NodeKind::kTableScan) {
    return Status::Internal("join build subplan lost its scan");
  }
  std::unique_ptr<Rel> build_residual =
      ReadRel(bchain[0]->scan_spec.output_schema);
  for (size_t i = 1; i < bchain.size(); ++i) {
    if (bchain[i]->kind != NodeKind::kFilter) {
      return Status::Internal("unexpected node in join build subplan");
    }
    POCS_ASSIGN_OR_RETURN(build_residual,
                          AppendNode(std::move(build_residual), *bchain[i]));
  }
  POCS_ASSIGN_OR_RETURN(std::shared_ptr<Table> dim_table,
                        runner->Run(*bchain[0], *build_residual, nullptr));
  probe.build_rows = dim_table->Combine();

  // ---- exact hash index + bloom over the build join keys -------------------
  Stopwatch build_timer;
  const columnar::Column& build_col =
      *probe.build_rows->column(join->build_key);
  bool keys_unique = true;
  for (size_t r = 0; r < probe.build_rows->num_rows(); ++r) {
    int64_t key;
    if (!JoinKeyAt(build_col, r, &key)) continue;  // null never joins
    std::vector<uint32_t>& rows = probe.index[key];
    rows.push_back(static_cast<uint32_t>(r));
    keys_unique = keys_unique && rows.size() == 1;
  }
  const double bits_per_key = runner->config.join_bloom_bits_per_key;
  const uint64_t bloom_bits = std::max<uint64_t>(
      64, static_cast<uint64_t>(
              bits_per_key * std::max<double>(probe.index.size(), 1.0)));
  const uint32_t bloom_hashes = std::clamp<uint32_t>(
      static_cast<uint32_t>(bits_per_key * 0.693 + 0.5), 1, 16);
  BloomFilter bloom(bloom_bits, bloom_hashes, kJoinBloomSeed);
  for (const auto& [key, rows] : probe.index) {
    bloom.Add(static_cast<uint64_t>(key));
  }
  runner->residual_seconds += build_timer.ElapsedSeconds();

  // ---- offer the bloom to the fact-side connector --------------------------
  connector::ScanSpec& spec = scan->scan_spec;
  // Join plans skip column pruning, so scan output order matches the
  // table schema — but stay defensive about an explicit projection.
  int bloom_col = join->probe_key;
  if (!spec.columns.empty()) {
    bloom_col = -1;
    for (size_t i = 0; i < spec.columns.size(); ++i) {
      if (spec.columns[i] == join->probe_key) bloom_col = static_cast<int>(i);
    }
  }
  if (bloom_col >= 0) {
    connector::PushedOperator op;
    op.kind = connector::PushedOperator::Kind::kJoinKeyBloom;
    op.bloom_words = bloom.words();
    op.bloom_hashes = bloom.num_hashes();
    op.bloom_seed = bloom.seed();
    op.bloom_column = bloom_col;
    op.bloom_key_count = probe.index.size();
    connector::PushdownDecision decision;
    decision.kind = op.kind;
    POCS_RETURN_NOT_OK(
        conn.OfferPushdown(scan->table, op, &spec, &decision).status());
    metrics->pushdown_decisions.push_back(decision);
  }

  const columnar::Schema& combined = *join->output_schema;
  const int n_fact = static_cast<int>(scan->output_schema->num_fields());
  if (probe.build_rows->num_columns() + static_cast<size_t>(n_fact) !=
      combined.num_fields()) {
    return Status::Internal("join build schema mismatch");
  }

  // ---- early-aggregation offer ----------------------------------------------
  bool two_phase = agg && residual_empty && keys_unique;
  for (size_t a = 0; two_phase && a < agg->aggregates.size(); ++a) {
    const substrait::AggregateSpec& aspec = agg->aggregates[a];
    if (aspec.func == substrait::AggFunc::kCountStar) continue;
    if (aspec.argument.kind != substrait::ExprKind::kFieldRef ||
        aspec.argument.field_index >= n_fact) {
      two_phase = false;  // dim-side or computed argument: keep engine-side
    }
  }
  if (!two_phase) {
    // The probe sits on every split's pages: joined rows are the fact
    // columns, then the dim columns.
    probe.key_column = join->probe_key;
    probe.schema = join->output_schema;
    return Status::OK();
  }

  std::vector<int>& storage_keys = out->partial_keys;
  for (int k : agg->group_keys) {
    if (k < n_fact) storage_keys.push_back(k);  // dim keys: from the probe
  }
  auto position = [&](int k) {
    return static_cast<int>(
        std::find(storage_keys.begin(), storage_keys.end(), k) -
        storage_keys.begin());
  };
  probe.key_column = position(join->probe_key);
  if (probe.key_column == static_cast<int>(storage_keys.size())) {
    storage_keys.push_back(join->probe_key);
  }
  // The partials' schema, taken before an accepted offer rewrites the
  // scan's to the same.
  const SchemaPtr partial_schema =
      PartialOutputSchema(*spec.output_schema, storage_keys, agg->aggregates);
  connector::PushedOperator op;
  op.kind = connector::PushedOperator::Kind::kPartialAggregation;
  op.group_keys = storage_keys;
  op.aggregates = PartialAggSpecs(agg->aggregates);
  connector::PushdownDecision decision;
  decision.kind = op.kind;
  POCS_ASSIGN_OR_RETURN(bool accepted,
                        conn.OfferPushdown(scan->table, op, &spec, &decision));
  metrics->pushdown_decisions.push_back(decision);
  // As for a pushed single-table aggregation: storage returns partials.
  if (accepted) agg->agg_step = AggregationStep::kFinal;
  out->probe_in_merge = true;

  // The merge probes the partials — joined rows are the partial columns,
  // then the dim columns — and the final aggregation groups them by the
  // user's keys: a fact key where the partials carry it, a dim key from
  // the matched build row.
  const int n_partial = static_cast<int>(partial_schema->num_fields());
  for (int k : agg->group_keys) {
    out->final_keys.push_back(k < n_fact ? position(k)
                                         : n_partial + (k - n_fact));
  }
  std::vector<columnar::Field> fields = partial_schema->fields();
  fields.insert(fields.end(), combined.fields().begin() + n_fact,
                combined.fields().end());
  probe.schema = columnar::MakeSchema(std::move(fields));
  return Status::OK();
}

}  // namespace

Result<QueryResult> QueryEngine::Execute(const std::string& sql,
                                         const std::string& catalog) {
  return Execute(sql, catalog, QueryOptions{});
}

Result<QueryResult> QueryEngine::Execute(const std::string& sql,
                                         const std::string& catalog,
                                         const QueryOptions& options) {
  // ---- admission -----------------------------------------------------------
  std::shared_ptr<AdmissionTicket> ticket = options.ticket;
  if (!ticket && admission_) {
    POCS_ASSIGN_OR_RETURN(ticket, admission_->Enqueue(options.tenant));
  }
  TicketReleaser releaser{ticket};
  if (ticket) ticket->Wait();

  Stopwatch total_timer;
  QueryResult result;
  QueryStats& metrics = result.metrics;
  if (ticket) metrics.admission_queue_seconds = ticket->queue_wait_seconds();

  connector::Connector* conn = GetConnector(catalog);
  if (!conn) return Status::NotFound("no connector '" + catalog + "'");

  // ---- parse ---------------------------------------------------------------
  Stopwatch parse_timer;
  POCS_ASSIGN_OR_RETURN(sql::Query query, sql::ParseQuery(sql));
  metrics.others += parse_timer.ElapsedSeconds();

  // ---- analyze + optimize ---------------------------------------------------
  Stopwatch plan_timer;
  std::string schema_name =
      query.schema_name.empty() ? "default" : query.schema_name;
  POCS_ASSIGN_OR_RETURN(connector::TableHandle table,
                        conn->GetTableHandle(schema_name, query.table_name));
  connector::TableHandle build_table;
  const bool has_join = !query.join_table_name.empty();
  if (has_join) {
    POCS_ASSIGN_OR_RETURN(
        build_table, conn->GetTableHandle(schema_name, query.join_table_name));
  }
  POCS_ASSIGN_OR_RETURN(
      PlanNodePtr plan,
      AnalyzeQuery(query, table, has_join ? &build_table : nullptr));
  POCS_RETURN_NOT_OK(PruneColumns(plan));
  result.logical_plan = PlanChainToString(*plan);

  POCS_ASSIGN_OR_RETURN(LocalOptimizerResult local,
                        RunConnectorOptimizer(plan, *conn));
  plan = local.plan;
  metrics.pushdown_decisions = local.decisions;
  metrics.logical_plan_analysis = plan_timer.ElapsedSeconds();

  // ---- classify the executable chain ---------------------------------------
  //   scan → residual (filters, projects; either side of a join)
  //        → aggregation? → merge-stage nodes
  std::vector<PlanNode*> chain = Chain(plan.get());
  if (chain.empty() || chain[0]->kind != NodeKind::kTableScan) {
    return Status::Internal("optimized plan lost its scan");
  }
  PlanNode* scan = chain[0];
  PlanNode* join = nullptr;
  std::vector<PlanNode*> residual_nodes;
  size_t idx = 1;
  for (; idx < chain.size(); ++idx) {
    PlanNode* node = chain[idx];
    if (node->kind == NodeKind::kJoin && !join) {
      join = node;
    } else if (node->kind == NodeKind::kFilter ||
               (node->kind == NodeKind::kProject && !node->identity_project)) {
      residual_nodes.push_back(node);
    } else {
      break;
    }
  }
  PlanNode* agg = nullptr;
  if (idx < chain.size() && chain[idx]->kind == NodeKind::kAggregation) {
    agg = chain[idx++];
  }

  SplitRunner runner(*conn, *pool_, config_, &metrics);
  JoinStages join_stages;
  if (join) {
    POCS_RETURN_NOT_OK(PrepareJoin(join, scan, agg, residual_nodes.empty(),
                                   &runner, &join_stages));
  }
  JoinProbe* split_probe =
      join && !join_stages.probe_in_merge ? &join_stages.probe : nullptr;
  JoinProbe* merge_probe =
      join_stages.probe_in_merge ? &join_stages.probe : nullptr;

  // ---- per-split execution (parallel, real work) ----------------------------
  // Residual filters/projects, then the partial phase of an aggregation
  // the engine splits itself. Fact-side filters below a join run above
  // the probe: fact columns keep their indices in the joined schema.
  std::unique_ptr<Rel> residual = ReadRel(
      split_probe ? split_probe->schema : scan->scan_spec.output_schema);
  for (PlanNode* node : residual_nodes) {
    POCS_ASSIGN_OR_RETURN(residual, AppendNode(std::move(residual), *node));
  }
  if (agg && agg->agg_step == AggregationStep::kSingle) {
    residual = AggregateRel(
        std::move(residual),
        merge_probe ? join_stages.partial_keys : agg->group_keys,
        PartialAggSpecs(agg->aggregates), substrait::AggPhase::kPartial);
  }
  POCS_ASSIGN_OR_RETURN(std::shared_ptr<Table> partials,
                        runner.Run(*scan, *residual, split_probe));
  result.optimized_plan = PlanChainToString(*plan);  // includes join offers

  // Simulated stage times (DESIGN.md §4): transfer/storage roofline for the
  // scan stage (both sides of a join); compute-side work accounted under
  // post-scan execution.
  metrics.pushdown_and_transfer =
      SplitStageSeconds(runner.totals, config_.time_model);
  metrics.operator_timings.push_back(
      {"plan_analysis", metrics.logical_plan_analysis, 0, 0});
  metrics.operator_timings.push_back(
      {"ir_generation", metrics.ir_generation_seconds, 0, 0});
  metrics.operator_timings.push_back({"scan_transfer",
                                      metrics.pushdown_and_transfer,
                                      metrics.rows_scanned,
                                      metrics.rows_returned});

  // ---- merge stage (single-threaded, real work) -----------------------------
  std::unique_ptr<Rel> merge =
      ReadRel(merge_probe ? merge_probe->schema : partials->schema());
  if (agg) {
    // Per-split partials lead with the group keys; partials the merge
    // probes are laid out by PrepareJoin.
    std::vector<int> keys(agg->group_keys.size());
    std::iota(keys.begin(), keys.end(), 0);
    const size_t n_partial_keys =
        merge_probe ? join_stages.partial_keys.size() : keys.size();
    POCS_ASSIGN_OR_RETURN(
        merge, AppendFinalAggregation(
                   std::move(merge), *agg,
                   merge_probe ? join_stages.final_keys : keys,
                   n_partial_keys));
  }
  for (size_t i = idx; i < chain.size(); ++i) {  // merge-stage nodes
    POCS_ASSIGN_OR_RETURN(merge, AppendNode(std::move(merge), *chain[i]));
  }
  Stopwatch merge_timer;
  auto merge_source =
      [&](const Rel&) -> Result<std::unique_ptr<exec::BatchSource>> {
    return Probed(std::make_unique<exec::TableSource>(partials), merge_probe);
  };
  exec::ExecStats merge_stats;
  POCS_ASSIGN_OR_RETURN(std::shared_ptr<Table> current,
                        exec::ExecuteRel(*merge, merge_source, &merge_stats));
  // The probe is residual work wherever it runs: on every split, or here
  // over a phase split's partials.
  const JoinProbe& probe = join_stages.probe;
  const double merge_seconds =
      merge_timer.ElapsedSeconds() - (merge_probe ? probe.seconds.load() : 0.0);
  runner.residual_seconds += probe.seconds;
  if (agg && (agg->agg_step == AggregationStep::kFinal || merge_probe)) {
    // Inputs are partials storage (or the engine's phase split) computed.
    metrics.partial_agg_merges +=
        merge_stats.ForKind(RelKind::kAggregate).rows_in;
  }
  metrics.post_scan_execution =
      runner.residual_seconds /
          static_cast<double>(std::max<size_t>(config_.worker_threads, 1)) +
      merge_seconds;

  for (size_t k = 1; k < exec::ExecStats::kNumRelKinds; ++k) {
    const exec::OperatorCounters& oc = merge_stats.operators[k];
    if (oc.invocations == 0 && oc.rows_in == 0 && oc.rows_out == 0) continue;
    metrics.operator_timings.push_back(
        {"merge." + std::string(substrait::RelKindName(
                        static_cast<RelKind>(k))),
         oc.seconds, oc.rows_in, oc.rows_out});
  }
  if (join) {
    metrics.operator_timings.push_back(
        {"join.probe", probe.seconds, probe.rows_in, probe.rows_out});
  }
  metrics.operator_timings.push_back(
      {"post_scan", metrics.post_scan_execution, metrics.rows_returned,
       current->num_rows()});

  // ---- epilogue ------------------------------------------------------------
  // Derive the pushdown counters from the decision log, close the
  // simulated-time books, and notify listeners with the same record.
  result.table = current->Combine();
  metrics.tenant = options.tenant;
  metrics.result_rows = result.table ? result.table->num_rows() : 0;
  for (const auto& d : metrics.pushdown_decisions) {
    ++metrics.pushdown_offered;
    ++(d.accepted ? metrics.pushdown_accepted : metrics.pushdown_rejected);
    if (d.kind == connector::PushedOperator::Kind::kPartialAggregation) {
      ++(d.accepted ? metrics.partial_agg_accepted
                    : metrics.partial_agg_rejected);
    } else if (d.kind == connector::PushedOperator::Kind::kJoinKeyBloom &&
               d.accepted) {
      ++metrics.bloom_pushed;
    }
  }
  metrics.others += std::max(
      0.0, total_timer.ElapsedSeconds() -
               (metrics.logical_plan_analysis + metrics.ir_generation_seconds +
                runner.residual_seconds + metrics.storage_compute_seconds +
                metrics.others));
  metrics.total = metrics.others + metrics.logical_plan_analysis +
                  metrics.ir_generation_seconds +
                  metrics.pushdown_and_transfer + metrics.post_scan_execution;
  metrics.wall_seconds = total_timer.ElapsedSeconds();

  if (listeners_.empty()) return result;
  connector::QueryEvent event;
  event.query_id = "q" + std::to_string(next_query_id_++);
  event.connector_id = catalog;
  event.stats = metrics;
  for (const auto& listener : listeners_) listener->QueryCompleted(event);
  return result;
}

}  // namespace pocs::engine
