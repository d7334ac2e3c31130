#include "connectors/hive/hive_connector.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "format/parquet_lite.h"

namespace pocs::connectors {

using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using connector::PageSourceStats;
using connector::PushedOperator;
using connector::ScanSpec;
using connector::Split;
using connector::TableHandle;
using substrait::Expression;
using substrait::ExprKind;
using substrait::ScalarFunc;

bool DecomposeSelectPredicate(
    const Expression& predicate, const columnar::Schema& schema,
    std::vector<objectstore::SelectPredicate>* terms) {
  if (predicate.kind != ExprKind::kCall) return false;
  if (predicate.func == ScalarFunc::kAnd) {
    return DecomposeSelectPredicate(predicate.args[0], schema, terms) &&
           DecomposeSelectPredicate(predicate.args[1], schema, terms);
  }
  if (!substrait::IsComparison(predicate.func)) return false;
  const Expression* field = nullptr;
  const Expression* literal = nullptr;
  bool flipped = false;
  if (predicate.args[0].kind == ExprKind::kFieldRef &&
      predicate.args[1].kind == ExprKind::kLiteral) {
    field = &predicate.args[0];
    literal = &predicate.args[1];
  } else if (predicate.args[1].kind == ExprKind::kFieldRef &&
             predicate.args[0].kind == ExprKind::kLiteral) {
    field = &predicate.args[1];
    literal = &predicate.args[0];
    flipped = true;
  } else {
    return false;
  }
  if (field->field_index < 0 ||
      static_cast<size_t>(field->field_index) >= schema.num_fields()) {
    return false;
  }
  columnar::CompareOp op;
  switch (predicate.func) {
    case ScalarFunc::kEq: op = columnar::CompareOp::kEq; break;
    case ScalarFunc::kNe: op = columnar::CompareOp::kNe; break;
    case ScalarFunc::kLt: op = columnar::CompareOp::kLt; break;
    case ScalarFunc::kLe: op = columnar::CompareOp::kLe; break;
    case ScalarFunc::kGt: op = columnar::CompareOp::kGt; break;
    case ScalarFunc::kGe: op = columnar::CompareOp::kGe; break;
    default: return false;
  }
  if (flipped) {
    switch (op) {
      case columnar::CompareOp::kLt: op = columnar::CompareOp::kGt; break;
      case columnar::CompareOp::kLe: op = columnar::CompareOp::kGe; break;
      case columnar::CompareOp::kGt: op = columnar::CompareOp::kLt; break;
      case columnar::CompareOp::kGe: op = columnar::CompareOp::kLe; break;
      default: break;
    }
  }
  terms->push_back(
      {schema.field(field->field_index).name, op, literal->literal});
  return true;
}

Result<TableHandle> HiveConnector::GetTableHandle(
    const std::string& schema_name, const std::string& table) {
  POCS_ASSIGN_OR_RETURN(metastore::TableInfo info,
                        metastore_->GetTable(schema_name, table));
  TableHandle handle;
  handle.connector_id = id_;
  handle.info = std::move(info);
  return handle;
}

Result<connector::SplitPlan> HiveConnector::GetSplits(const TableHandle& table,
                                                      const ScanSpec&) {
  // S3-style storage exposes no object statistics, so hive plans one
  // split per object with no pruning.
  connector::SplitPlan plan;
  for (const std::string& object : table.info.objects) {
    plan.splits.push_back({table.info.bucket, object});
  }
  plan.splits_planned = plan.splits.size();
  return plan;
}

namespace {

// Mirrors every OfferPushdown outcome into the registry.
bool RecordHivePushdownDecision(bool accepted) {
  auto& reg = metrics::Registry::Default();
  static auto& offered = reg.GetCounter("connector.hive.pushdown_offered");
  static auto& ok = reg.GetCounter("connector.hive.pushdown_accepted");
  static auto& rejected = reg.GetCounter("connector.hive.pushdown_rejected");
  offered.Increment();
  (accepted ? ok : rejected).Increment();
  return accepted;
}

}  // namespace

Result<bool> HiveConnector::OfferPushdown(
    const TableHandle& table, const PushedOperator& op, ScanSpec* spec,
    connector::PushdownDecision* decision) {
  (void)table;
  decision->kind = op.kind;
  if (!config_.select_pushdown) {
    decision->accepted = false;
    decision->reason = "select pushdown disabled (raw GET mode)";
    return RecordHivePushdownDecision(false);
  }
  if (op.kind != PushedOperator::Kind::kFilter) {
    decision->accepted = false;
    decision->reason = "S3 Select API supports only filter and projection";
    return RecordHivePushdownDecision(false);
  }
  if (spec->HasOperator(PushedOperator::Kind::kFilter)) {
    decision->accepted = false;
    decision->reason = "one Select filter per scan";
    return RecordHivePushdownDecision(false);
  }
  std::vector<objectstore::SelectPredicate> terms;
  if (!DecomposeSelectPredicate(op.predicate, *spec->output_schema, &terms)) {
    decision->accepted = false;
    decision->reason = "predicate not expressible in the Select API";
    return RecordHivePushdownDecision(false);
  }
  if (config_.s3_strict_types) {
    // Strict S3 Select cannot process or return doubles: any float64 in
    // the scanned schema forces the whole scan off the Select path.
    for (const columnar::Field& f : spec->output_schema->fields()) {
      if (f.type == columnar::TypeKind::kFloat64) {
        decision->accepted = false;
        decision->reason =
            "S3 Select (strict mode) does not support float64 column '" +
            f.name + "'";
        return RecordHivePushdownDecision(false);
      }
    }
  }
  spec->operators.push_back(op);  // filter preserves the schema
  decision->accepted = true;
  decision->reason = "conjunctive comparison filter via S3 Select";
  return RecordHivePushdownDecision(true);
}

namespace {

// Page source for the Select path: one CSV response per split.
class SelectPageSource final : public connector::PageSource {
 public:
  SelectPageSource(SchemaPtr schema, RecordBatchPtr batch,
                   PageSourceStats stats)
      : schema_(std::move(schema)), batch_(std::move(batch)), stats_(stats) {}

  SchemaPtr schema() const override { return schema_; }
  Result<RecordBatchPtr> Next() override {
    RecordBatchPtr out = std::move(batch_);
    batch_ = nullptr;
    return out;
  }
  const PageSourceStats& stats() const override { return stats_; }

 private:
  SchemaPtr schema_;
  RecordBatchPtr batch_;
  PageSourceStats stats_;
};

// Page source for the Select→GET degradation path: whole object
// downloaded, the accepted filter re-applied compute-side per row group
// so the rows still honour the pushdown contract, then the result
// projection.
class SelectFallbackPageSource final : public connector::PageSource {
 public:
  SelectFallbackPageSource(std::shared_ptr<format::FileReader> reader,
                           std::vector<int> scan_columns,
                           SchemaPtr scan_schema,
                           std::vector<objectstore::SelectPredicate> predicates,
                           std::vector<int> result_columns, SchemaPtr schema,
                           PageSourceStats stats)
      : reader_(std::move(reader)),
        scan_columns_(std::move(scan_columns)),
        scan_schema_(std::move(scan_schema)),
        predicates_(std::move(predicates)),
        result_columns_(std::move(result_columns)),
        schema_(std::move(schema)),
        stats_(stats) {}

  SchemaPtr schema() const override { return schema_; }

  Result<RecordBatchPtr> Next() override {
    if (group_ >= reader_->num_row_groups()) return RecordBatchPtr{};
    Stopwatch decode;
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                          reader_->ReadRowGroup(group_++, scan_columns_));
    stats_.rows_scanned += batch->num_rows();
    columnar::SelectionVector sel;
    const columnar::SelectionVector* input = nullptr;
    for (const objectstore::SelectPredicate& pred : predicates_) {
      int idx = scan_schema_->FieldIndex(pred.column);
      if (idx < 0) {
        return Status::Internal("hive fallback: unknown filter column '" +
                                pred.column + "'");
      }
      sel = columnar::CompareScalar(*batch->column(idx), pred.op,
                                    pred.literal, input);
      input = &sel;
    }
    if (input != nullptr) batch = columnar::TakeBatch(*batch, sel);
    if (!result_columns_.empty()) batch = batch->Project(result_columns_);
    stats_.decode_seconds += decode.ElapsedSeconds();
    stats_.rows_returned += batch->num_rows();
    return batch;
  }
  const PageSourceStats& stats() const override { return stats_; }

 private:
  std::shared_ptr<format::FileReader> reader_;
  std::vector<int> scan_columns_;
  SchemaPtr scan_schema_;
  std::vector<objectstore::SelectPredicate> predicates_;
  std::vector<int> result_columns_;
  SchemaPtr schema_;
  PageSourceStats stats_;
  size_t group_ = 0;
};

// Page source for the raw-GET path: whole object downloaded, decoded per
// row group at the compute node.
class RawGetPageSource final : public connector::PageSource {
 public:
  RawGetPageSource(std::shared_ptr<format::FileReader> reader,
                   std::vector<int> columns, SchemaPtr schema,
                   PageSourceStats stats)
      : reader_(std::move(reader)),
        columns_(std::move(columns)),
        schema_(std::move(schema)),
        stats_(stats) {}

  SchemaPtr schema() const override { return schema_; }

  Result<RecordBatchPtr> Next() override {
    if (group_ >= reader_->num_row_groups()) return RecordBatchPtr{};
    Stopwatch decode;
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                          reader_->ReadRowGroup(group_++, columns_));
    stats_.decode_seconds += decode.ElapsedSeconds();
    stats_.rows_returned += batch->num_rows();
    // Raw GET ships everything; every decoded row was "scanned" — at the
    // compute node, which is exactly the baseline's problem.
    stats_.rows_scanned += batch->num_rows();
    return batch;
  }
  const PageSourceStats& stats() const override { return stats_; }

 private:
  std::shared_ptr<format::FileReader> reader_;
  std::vector<int> columns_;
  SchemaPtr schema_;
  PageSourceStats stats_;
  size_t group_ = 0;
};

}  // namespace

Result<std::unique_ptr<connector::PageSource>> HiveConnector::CreatePageSource(
    const TableHandle& table, const Split& split, const ScanSpec& spec) {
  const SchemaPtr& table_schema = table.info.schema;

  // Scan-level column pruning...
  std::vector<int> columns = spec.columns;
  SchemaPtr scan_schema;
  if (columns.empty()) {
    scan_schema = table_schema;
  } else {
    std::vector<columnar::Field> fields;
    for (int c : columns) fields.push_back(table_schema->field(c));
    scan_schema = columnar::MakeSchema(std::move(fields));
  }
  // ...then the result-column projection (drops predicate-only columns;
  // in raw-GET mode this is decode-side projection, in Select mode it is
  // the request's SELECT list).
  SchemaPtr projected = scan_schema;
  if (!spec.result_columns.empty()) {
    std::vector<columnar::Field> fields;
    std::vector<int> table_indices;
    for (int c : spec.result_columns) {
      fields.push_back(scan_schema->field(c));
      table_indices.push_back(columns.empty() ? c : columns[c]);
    }
    projected = columnar::MakeSchema(std::move(fields));
    columns = std::move(table_indices);  // raw-GET decodes only these
  }

  // Strict mode: a float64 anywhere in the projection forces raw GET.
  bool strict_blocks_select = false;
  if (config_.s3_strict_types) {
    for (const columnar::Field& f : projected->fields()) {
      if (f.type == columnar::TypeKind::kFloat64) strict_blocks_select = true;
    }
  }

  if (!config_.select_pushdown || strict_blocks_select ||
      spec.operators.empty()) {
    if (config_.select_pushdown && !strict_blocks_select &&
        !spec.columns.empty()) {
      // Select path without a filter: projection-only Select.
      // (Falls through to the Select request below with no predicates.)
    } else if (!config_.select_pushdown || strict_blocks_select) {
      // Raw GET: the entire object crosses the network.
      PageSourceStats stats;
      objectstore::TransferInfo info;
      POCS_ASSIGN_OR_RETURN(
          Bytes object,
          client_.Get(split.bucket, split.object, &info, config_.call));
      info.AddTo(&stats);
      {
        auto& reg = metrics::Registry::Default();
        static auto& gets = reg.GetCounter("connector.hive.raw_gets");
        static auto& bytes = reg.GetCounter("connector.hive.bytes_received");
        gets.Increment();
        bytes.Add(info.bytes_received);
      }
      // The GET reads the whole object off the storage node's media.
      stats.media_read_seconds =
          static_cast<double>(object.size()) / config_.media_read_bandwidth;
      POCS_ASSIGN_OR_RETURN(auto reader,
                            format::FileReader::Open(std::move(object)));
      return std::unique_ptr<connector::PageSource>(
          std::make_unique<RawGetPageSource>(std::move(reader), columns,
                                             projected, stats));
    }
  }

  // Select path: filter (if pushed) + projection at storage, CSV back.
  objectstore::SelectRequest request;
  request.bucket = split.bucket;
  request.key = split.object;
  for (const columnar::Field& f : projected->fields()) {
    request.columns.push_back(f.name);
  }
  for (const auto& op : spec.operators) {
    if (op.kind != PushedOperator::Kind::kFilter) {
      return Status::Internal("hive: unsupported pushed operator");
    }
    // Predicate field refs are relative to the scan schema (they may name
    // columns dropped from the result projection).
    if (!DecomposeSelectPredicate(op.predicate, *scan_schema,
                                  &request.predicates)) {
      return Status::Internal("hive: accepted filter not expressible");
    }
  }

  PageSourceStats stats;
  objectstore::TransferInfo info;
  Stopwatch select_timer;
  Result<objectstore::SelectResponse> select_or =
      client_.Select(request, &info, config_.call);
  if (!select_or.ok()) {
    info.AddTo(&stats);
    stats.failed_splits = 1;
    {
      auto& reg = metrics::Registry::Default();
      static auto& failed = reg.GetCounter("connector.hive.failed_selects");
      failed.Increment();
    }
    if (!config_.fallback_to_raw_get || !rpc::IsRetryable(select_or.status())) {
      return select_or.status();
    }
    // Degrade to a raw GET of the whole object; the accepted filter is
    // re-applied compute-side by the page source so rows stay correct.
    objectstore::TransferInfo get_info;
    POCS_ASSIGN_OR_RETURN(
        Bytes object,
        client_.Get(split.bucket, split.object, &get_info,
                    config_.fallback_call));
    get_info.AddTo(&stats);
    stats.media_read_seconds +=
        static_cast<double>(object.size()) / config_.media_read_bandwidth;
    stats.fallbacks = 1;
    {
      auto& reg = metrics::Registry::Default();
      static auto& fallbacks = reg.GetCounter("connector.hive.fallbacks");
      fallbacks.Increment();
    }
    POCS_ASSIGN_OR_RETURN(auto reader,
                          format::FileReader::Open(std::move(object)));
    return std::unique_ptr<connector::PageSource>(
        std::make_unique<SelectFallbackPageSource>(
            std::move(reader), spec.columns, scan_schema, request.predicates,
            spec.result_columns, projected, stats));
  }
  objectstore::SelectResponse response = std::move(*select_or);
  // The synchronous in-process Select call's wall time is storage-side
  // work; scale it to the storage node's weaker CPU.
  stats.storage_compute_seconds =
      select_timer.ElapsedSeconds() * config_.storage_cpu_slowdown;
  stats.media_read_seconds =
      static_cast<double>(response.stats.object_bytes_read) /
      config_.media_read_bandwidth;
  stats.row_groups_total = response.stats.groups_total;
  stats.row_groups_skipped = response.stats.groups_skipped;
  stats.rows_scanned = response.stats.rows_scanned;
  info.AddTo(&stats);

  Stopwatch decode;
  POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                        objectstore::ParseSelectCsv(response.csv, projected));
  stats.decode_seconds = decode.ElapsedSeconds();
  stats.rows_returned = batch->num_rows();

  {
    auto& reg = metrics::Registry::Default();
    static auto& selects = reg.GetCounter("connector.hive.select_requests");
    static auto& bytes = reg.GetCounter("connector.hive.bytes_received");
    static auto& rows = reg.GetCounter("connector.hive.rows_received");
    static auto& csv = reg.GetHistogram("connector.hive.csv_decode_seconds");
    selects.Increment();
    bytes.Add(stats.bytes_from_storage);
    rows.Add(stats.rows_returned);
    csv.Record(stats.decode_seconds);
  }
  return std::unique_ptr<connector::PageSource>(
      std::make_unique<SelectPageSource>(projected, std::move(batch), stats));
}

}  // namespace pocs::connectors
