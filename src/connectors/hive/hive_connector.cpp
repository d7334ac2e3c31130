#include "connectors/hive/hive_connector.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "connectors/ocs/translator.h"
#include "format/parquet_lite.h"
#include "objectstore/select.h"
#include "ocs/storage_node.h"

namespace pocs::connectors {

using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using connector::PageSourceStats;
using connector::PushedOperator;
using connector::ScanSpec;
using connector::Split;
using connector::TableHandle;

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

Result<bool> HiveConnector::OfferPushdown(
    const TableHandle& table, const PushedOperator& op, ScanSpec* spec,
    connector::PushdownDecision* decision) {
  (void)table;
  decision->kind = op.kind;
  if (!config_.select_pushdown) {
    decision->accepted = false;
    decision->reason = "select pushdown disabled (raw GET mode)";
    return false;
  }
  if (op.kind != PushedOperator::Kind::kFilter) {
    decision->accepted = false;
    decision->reason = "S3 Select API supports only filter and projection";
    return false;
  }
  if (spec->HasOperator(PushedOperator::Kind::kFilter)) {
    decision->accepted = false;
    decision->reason = "one Select filter per scan";
    return false;
  }
  std::vector<objectstore::SelectPredicate> terms;
  if (!ocs::CollectPruningTerms(op.predicate, *spec->output_schema, &terms)) {
    decision->accepted = false;
    decision->reason = "predicate not expressible in the Select API";
    return false;
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
        return false;
      }
    }
  }
  spec->operators.push_back(op);  // filter preserves the schema
  decision->accepted = true;
  decision->reason = "conjunctive comparison filter via S3 Select";
  return true;
}

namespace {

// Page source for the Select path: one batch per split, parsed from the
// CSV response (or run by the Select→GET fallback).
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
  // the plan's Project).
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

  if (!config_.select_pushdown || strict_blocks_select) {
    // Raw GET: the entire object crosses the network, on the Select
    // client's channel to the frontend.
    PageSourceStats stats;
    objectstore::TransferInfo info;
    POCS_ASSIGN_OR_RETURN(
        objectstore::ObjectRead object,
        objectstore::StorageClient(client_.channel())
            .Get(split.bucket, split.object, &info, config_.call));
    info.AddTo(&stats);
    static auto& raw_gets =
        metrics::Registry::Default().GetCounter("connector.hive.raw_gets");
    raw_gets.Increment();
    // The GET reads the whole object off the storage node's media.
    stats.media_read_seconds =
        static_cast<double>(object.data.size()) / ocs::kMediaReadBandwidth;
    POCS_ASSIGN_OR_RETURN(auto reader,
                          format::FileReader::Open(std::move(object.data)));
    return std::unique_ptr<connector::PageSource>(
        std::make_unique<RawGetPageSource>(std::move(reader), columns,
                                           projected, stats));
  }

  // Select path: the split's Read → [Filter] → [Project] plan runs at
  // storage and comes back as CSV; its fallback runs the same plan.
  POCS_ASSIGN_OR_RETURN(substrait::Plan plan,
                        TranslateScanSpec(table, split, spec));
  PageSourceStats stats;
  objectstore::TransferInfo info;
  Result<ocs::OcsResult> result = client_.Select(plan, &info, config_.call);
  info.AddTo(&stats);
  if (!result.ok()) {
    stats.failed_splits = 1;
    if (!rpc::IsRetryable(result.status())) return result.status();
    // Degrade to a raw GET of the whole object and run the plan over it
    // with the storage node's scan, so the rows and row counters are the
    // Select's own.
    POCS_ASSIGN_OR_RETURN(auto scanned,
                          client_.FetchAndScan(plan, /*chunk_bytes=*/0,
                                               config_.fallback_call, &stats));
    stats.fallbacks = 1;
    Stopwatch combine;
    RecordBatchPtr batch = scanned->Combine();
    stats.decode_seconds += combine.ElapsedSeconds();
    stats.rows_returned = batch->num_rows();
    return std::unique_ptr<connector::PageSource>(
        std::make_unique<SelectPageSource>(projected, std::move(batch), stats));
  }
  stats += result->stats;

  Stopwatch decode;
  POCS_ASSIGN_OR_RETURN(std::string_view csv,
                        objectstore::SelectCsvText(result->arrow_ipc.span()));
  POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                        objectstore::ParseSelectCsv(csv, projected));
  stats.decode_seconds = decode.ElapsedSeconds();
  stats.rows_returned = batch->num_rows();
  return std::unique_ptr<connector::PageSource>(
      std::make_unique<SelectPageSource>(projected, std::move(batch), stats));
}

}  // namespace pocs::connectors
