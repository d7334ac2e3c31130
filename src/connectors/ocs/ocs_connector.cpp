#include "connectors/ocs/ocs_connector.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "connectors/ocs/sql_reconstruction.h"
#include "connectors/ocs/translator.h"
#include "objectstore/service.h"
#include "ocs/storage_node.h"
#include "substrait/serialize.h"

namespace pocs::connectors {

using columnar::Field;
using columnar::MakeSchema;
using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using connector::PageSourceStats;
using connector::PushedOperator;
using connector::ScanSpec;
using connector::Split;
using connector::TableHandle;

Result<TableHandle> OcsConnector::GetTableHandle(
    const std::string& schema_name, const std::string& table) {
  POCS_ASSIGN_OR_RETURN(metastore::TableInfo info,
                        metastore_->GetTable(schema_name, table));
  TableHandle handle;
  handle.connector_id = id_;
  handle.info = std::move(info);
  return handle;
}

namespace {

// Projected table schema for a scan spec (statistics lookups by name).
SchemaPtr ProjectedSchema(const TableHandle& table, const ScanSpec& spec) {
  if (spec.columns.empty()) return table.info.schema;
  std::vector<Field> fields;
  for (int c : spec.columns) fields.push_back(table.info.schema->field(c));
  return MakeSchema(std::move(fields));
}

// Average value width in bytes (rough, for projection size ratios).
double SchemaRowWidth(const columnar::Schema& schema) {
  double width = 0;
  for (const Field& f : schema.fields()) {
    size_t w = columnar::TypeWidth(f.type);
    width += w == 0 ? 16.0 : static_cast<double>(w);
  }
  return width;
}

// True when a group key of the spec's pushed aggregation is a bare table
// column whose values never span two objects (TableInfo::object_disjoint).
// Splits are objects, so every group is then complete in one split, and a
// per-split top-N or limit over the partial groups keeps exactly the
// groups the final merge would. A computed key (a pushed projection's
// expression) proves nothing.
bool GroupsStayInOneSplit(const TableHandle& table, const ScanSpec& spec) {
  // The table column behind each column of the pipeline (-1: computed).
  std::vector<int> origin = spec.columns;
  if (origin.empty()) {
    origin.resize(table.info.schema->num_fields());
    std::iota(origin.begin(), origin.end(), 0);
  }
  auto origin_of = [&origin](int index) {
    return index >= 0 && static_cast<size_t>(index) < origin.size()
               ? origin[index]
               : -1;
  };
  for (const PushedOperator& op : spec.operators) {
    if (op.kind == PushedOperator::Kind::kProject) {
      std::vector<int> projected;
      for (const substrait::Expression& e : op.expressions) {
        projected.push_back(e.kind == substrait::ExprKind::kFieldRef
                                ? origin_of(e.field_index)
                                : -1);
      }
      origin = std::move(projected);
    } else if (op.kind == PushedOperator::Kind::kPartialAggregation) {
      return std::any_of(op.group_keys.begin(), op.group_keys.end(),
                         [&](int k) {
                           return table.info.ObjectDisjoint(origin_of(k));
                         });
    }
  }
  return false;
}

}  // namespace

Result<connector::SplitPlan> PlanSplits(const ocs::PlanningClient& client,
                                        const MetadataCache* metadata_cache,
                                        const rpc::CallOptions& call,
                                        bool locate, const TableHandle& table,
                                        const ScanSpec& spec) {
  connector::SplitPlan plan;
  plan.splits_planned = table.info.objects.size();

  // Stats-based pruning terms: the leading pushed filter — the operator
  // that will sit directly above the scan in the translated plan —
  // decomposed into `field <cmp> literal` conjuncts against the projected
  // scan schema. Exactly the terms the storage node's own pruning
  // evaluates, so plan-time and storage-time decisions agree.
  std::vector<objectstore::SelectPredicate> terms;
  if (metadata_cache && !spec.operators.empty() &&
      spec.operators.front().kind == PushedOperator::Kind::kFilter) {
    SchemaPtr scan_schema = ProjectedSchema(table, spec);
    ocs::CollectPruningTerms(spec.operators.front().predicate, *scan_schema,
                             &terms);
  }

  // A pushed join-key bloom must be pinned to the object version it will
  // prune against (DESIGN.md §14): storage applies the filter only while
  // the pin matches, so a PUT between planning and dispatch silently
  // disables it rather than dropping rows of the new data.
  bool has_bloom = false;
  for (const PushedOperator& op : spec.operators) {
    if (op.kind == PushedOperator::Kind::kJoinKeyBloom) has_bloom = true;
  }

  MetadataCacheOutcomes outcomes;
  std::vector<Split> splits;
  for (const std::string& object : table.info.objects) {
    Split split{table.info.bucket, object};
    MetadataCache::FooterPtr footer;
    if (!terms.empty()) {
      footer = metadata_cache->GetDescriptor(client, table.info.bucket, object,
                                             &outcomes);
    }
    // A stats-path failure leaves `footer` null: plan the split unpruned.
    if (footer) {
      // The groups the storage scan's own test keeps.
      const std::vector<format::RowGroupMeta>& groups = footer->meta.row_groups;
      std::vector<uint32_t> survivors;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (ocs::RowGroupMayMatch(footer->meta, g, terms)) {
          survivors.push_back(static_cast<uint32_t>(g));
        }
      }
      if (survivors.empty()) {
        ++plan.splits_pruned;
        continue;  // proven empty — no data RPC is ever issued for it
      }
      if (survivors.size() < groups.size()) {
        // Partial survival: hint the keepers, pinned to the footer's
        // version so storage discards the hint if the object moves on
        // before dispatch.
        split.row_groups = std::move(survivors);
        split.stats_version = footer->version;
      }
      split.bloom_version = footer->version;
    }
    if (has_bloom && split.bloom_version == 0) {
      // Pin via a metadata-only Stat. On failure the pin stays 0 and
      // storage ignores the bloom wholesale — the safe direction.
      auto ostat = client.Stat(table.info.bucket, object, nullptr, call);
      if (ostat.ok()) split.bloom_version = ostat->version;
    }
    if (locate) {
      // Resolve placement up front (metadata-only Locate on the
      // frontend). Failure degrades to an unhinted split — dispatched
      // unthrottled rather than failing the query.
      auto placement =
          client.LocateObject(table.info.bucket, object, nullptr, call);
      if (placement.ok()) split.node_hint = static_cast<int>(placement->node);
    }
    splits.push_back(std::move(split));
  }
  if (locate) {
    // Load-aware ordering: interleave the split list round-robin across
    // nodes (unhinted splits last), so the engine's in-order fan-out
    // touches every node early instead of draining one node's objects
    // first. Placement is deterministic, so this order is too.
    std::map<int, std::vector<Split>> lanes;
    for (Split& split : splits) {
      const int lane = split.node_hint < 0 ? std::numeric_limits<int>::max()
                                           : split.node_hint;
      lanes[lane].push_back(std::move(split));
    }
    std::vector<Split> interleaved;
    interleaved.reserve(splits.size());
    std::map<int, size_t> taken;
    for (bool progress = true; progress;) {
      progress = false;
      for (auto& [lane, queue] : lanes) {
        size_t& next = taken[lane];
        if (next < queue.size()) {
          interleaved.push_back(std::move(queue[next]));
          ++next;
          progress = true;
        }
      }
    }
    splits = std::move(interleaved);
  }

  plan.metadata_cache_hits = outcomes.hits;
  plan.metadata_cache_misses = outcomes.misses;
  plan.metadata_cache_stale = outcomes.stale;
  plan.metadata_cache_errors = outcomes.errors;
  plan.splits = std::move(splits);
  return plan;
}

Result<connector::SplitPlan> OcsConnector::GetSplits(const TableHandle& table,
                                                     const ScanSpec& spec) {
  return PlanSplits(planner_, metadata_cache_.get(), config_.dispatch.call,
                    dispatcher_ != nullptr, table, spec);
}

Result<bool> OcsConnector::OfferPushdown(
    const TableHandle& table, const PushedOperator& op, ScanSpec* spec,
    connector::PushdownDecision* decision) {
  decision->kind = op.kind;
  SelectivityAnalyzer analyzer(table.info, config_.selectivity);
  SchemaPtr scan_schema = ProjectedSchema(table, *spec);

  // Replay the already-absorbed pipeline to estimate the operator's input
  // row count (the Selectivity Analyzer's traversal state).
  double rows = static_cast<double>(table.info.row_count);
  bool have_agg = false;
  for (const PushedOperator& prior : spec->operators) {
    switch (prior.kind) {
      case PushedOperator::Kind::kFilter:
        rows *= analyzer.EstimateFilterSelectivity(prior.predicate,
                                                   *scan_schema);
        break;
      case PushedOperator::Kind::kPartialAggregation:
        rows *= analyzer.EstimateAggregationSelectivity(
            prior.group_keys, *spec->output_schema, rows);
        have_agg = true;
        break;
      case PushedOperator::Kind::kPartialTopN:
      case PushedOperator::Kind::kPartialLimit:
        rows = std::min(rows, static_cast<double>(prior.limit));
        break;
      case PushedOperator::Kind::kJoinKeyBloom:
        rows *= 0.5;  // heuristic: see the kJoinKeyBloom offer case
        break;
      case PushedOperator::Kind::kProject:
        break;
    }
  }

  double selectivity = 1.0;  // estimated output/input (rows or bytes)
  bool capable = true;
  std::string incapable_reason;

  switch (op.kind) {
    case PushedOperator::Kind::kFilter:
      if (!config_.pushdown_filter) {
        capable = false;
        incapable_reason = "filter pushdown disabled";
        break;
      }
      selectivity =
          analyzer.EstimateFilterSelectivity(op.predicate, *spec->output_schema);
      break;
    case PushedOperator::Kind::kProject: {
      if (!config_.pushdown_projection) {
        capable = false;
        incapable_reason = "expression projection pushdown disabled";
        break;
      }
      double in_width = SchemaRowWidth(*spec->output_schema);
      double out_width = 0;
      for (const auto& e : op.expressions) {
        size_t w = columnar::TypeWidth(e.type);
        out_width += w == 0 ? 16.0 : static_cast<double>(w);
      }
      selectivity = in_width > 0 ? out_width / in_width : 1.0;
      break;
    }
    case PushedOperator::Kind::kPartialAggregation:
      if (!config_.pushdown_aggregation) {
        capable = false;
        incapable_reason = "aggregation pushdown disabled";
        break;
      }
      selectivity = analyzer.EstimateAggregationSelectivity(
          op.group_keys, *spec->output_schema, rows);
      break;
    case PushedOperator::Kind::kPartialTopN:
    case PushedOperator::Kind::kPartialLimit:
      if (!config_.pushdown_topn) {
        capable = false;
        incapable_reason = "top-N/limit pushdown disabled";
        break;
      }
      if (have_agg && !GroupsStayInOneSplit(table, *spec)) {
        capable = false;
        incapable_reason =
            "top-N/limit above aggregation requires a group key whose values "
            "never span two objects";
        break;
      }
      selectivity = analyzer.EstimateTopNSelectivity(op.limit, rows);
      break;
    case PushedOperator::Kind::kJoinKeyBloom:
      if (!config_.pushdown_join_bloom) {
        capable = false;
        incapable_reason = "join-key bloom pushdown disabled";
        break;
      }
      if (op.bloom_words.empty() || op.bloom_hashes == 0) {
        capable = false;
        incapable_reason = "empty join-key bloom filter";
        break;
      }
      // No per-key join statistics exist; assume the canonical
      // half-pruned fact table. The filter is advisory (false positives
      // are re-filtered engine-side, stale pins disable it wholesale),
      // so a wrong estimate costs performance, never correctness.
      selectivity = 0.5;
      break;
  }

  decision->estimated_selectivity = selectivity;
  if (!capable) {
    decision->accepted = false;
    decision->reason = incapable_reason;
    return false;
  }
  const double reduction = 1.0 - selectivity;
  if (reduction < config_.min_reduction) {
    decision->accepted = false;
    decision->reason =
        "estimated reduction " + std::to_string(reduction) +
        " below threshold " + std::to_string(config_.min_reduction);
    return false;
  }

  // Operator Extractor: record the operator (with its conditions) in the
  // connector's scan metadata and advance the spec's output schema.
  spec->operators.push_back(op);
  switch (op.kind) {
    case PushedOperator::Kind::kFilter:
    case PushedOperator::Kind::kPartialTopN:
    case PushedOperator::Kind::kPartialLimit:
    case PushedOperator::Kind::kJoinKeyBloom:
      break;  // schema unchanged
    case PushedOperator::Kind::kProject: {
      std::vector<Field> fields;
      for (size_t i = 0; i < op.expressions.size(); ++i) {
        fields.push_back({op.output_names[i], op.expressions[i].type});
      }
      spec->output_schema = MakeSchema(std::move(fields));
      break;
    }
    case PushedOperator::Kind::kPartialAggregation: {
      std::vector<Field> fields;
      for (int k : op.group_keys) {
        fields.push_back(spec->output_schema->field(k));
      }
      for (const auto& agg : op.aggregates) {
        fields.push_back({agg.output_name, agg.OutputType()});
      }
      spec->output_schema = MakeSchema(std::move(fields));
      break;
    }
  }
  decision->accepted = true;
  decision->reason = "estimated selectivity " + std::to_string(selectivity);
  return true;
}

namespace {

class OcsPageSource final : public connector::PageSource {
 public:
  OcsPageSource(SchemaPtr schema, std::shared_ptr<columnar::Table> table,
                PageSourceStats stats)
      : schema_(std::move(schema)), table_(std::move(table)), stats_(stats) {}

  SchemaPtr schema() const override { return schema_; }
  Result<RecordBatchPtr> Next() override {
    if (next_ >= table_->batches().size()) return RecordBatchPtr{};
    return table_->batches()[next_++];
  }
  const PageSourceStats& stats() const override { return stats_; }

 private:
  SchemaPtr schema_;
  std::shared_ptr<columnar::Table> table_;
  PageSourceStats stats_;
  size_t next_ = 0;
};

// Common tail for the cold and cache-hit paths: rows returned,
// result-schema check, page source construction.
Result<std::unique_ptr<connector::PageSource>> MakePageSource(
    const connector::ScanSpec& spec, std::shared_ptr<columnar::Table> decoded,
    PageSourceStats stats) {
  stats.rows_returned = decoded->num_rows();
  SchemaPtr schema = spec.output_schema ? spec.output_schema
                                        : decoded->schema();
  if (!decoded->schema()->Equals(*schema)) {
    return Status::Internal("ocs: result schema mismatch: got " +
                            decoded->schema()->ToString() + ", want " +
                            schema->ToString());
  }
  return std::unique_ptr<connector::PageSource>(
      std::make_unique<OcsPageSource>(schema, std::move(decoded), stats));
}

}  // namespace

Result<std::unique_ptr<connector::PageSource>> OcsConnector::CreatePageSource(
    const TableHandle& table, const Split& split, const ScanSpec& spec) {
  PageSourceStats stats;

  // §4: reconstruct the pushdown operators into a SQL statement (logged,
  // auditable) and translate into the storage-executable Substrait plan
  // (timed: Table 3's "Substrait IR Generation" row).
  Stopwatch ir_timer;
  if (GetLogLevel() <= LogLevel::kDebug) {
    auto sql = ReconstructSql(table, spec);
    if (sql.ok()) {
      POCS_LOG(Debug) << "pushdown SQL for " << split.object << ": " << *sql;
    }
  }
  POCS_ASSIGN_OR_RETURN(substrait::Plan plan,
                        TranslateScanSpec(table, split, spec));
  stats.ir_generation_seconds = ir_timer.ElapsedSeconds();

  // Split-result cache: a repeat of a (object, plan) pair the connector
  // has already answered is validated with a metadata-only Stat and then
  // served without any data RPC.
  const std::string object_id = split.bucket + "/" + split.object;
  const uint64_t fingerprint =
      split_result_cache_ ? substrait::PlanFingerprint(plan) : 0;
  if (split_result_cache_) {
    const SplitResultKey cache_key{object_id, fingerprint};
    if (auto cached = split_result_cache_->Lookup(cache_key)) {
      objectstore::TransferInfo stat_info;
      objectstore::StorageClient store(client_.channel());
      auto ostat = store.Stat(split.bucket, split.object, &stat_info,
                              config_.dispatch.call);
      stat_info.AddTo(&stats);
      if (ostat.ok() && ostat->version == cached->version) {
        stats.cache_hits += 1;
        stats.cache_bytes_saved += cached->bytes_received;
        stats.rows_scanned = cached->rows_scanned;
        stats.row_groups_total = cached->row_groups_total;
        stats.row_groups_skipped = cached->row_groups_skipped;
        return MakePageSource(spec, cached->table, std::move(stats));
      }
      if (ostat.ok()) {
        // The object changed under us — a stale result is never served.
        split_result_cache_->Erase(cache_key);
        stats.cache_misses += 1;
      }
      // On a Stat failure we cannot validate: fall through to a normal
      // dispatch, leaving the entry for a later, healthier validation.
    } else {
      stats.cache_misses += 1;
    }
  }

  // Load-aware dispatch: take a per-node lease (blocking at the node's
  // in-flight cap) for the whole dispatch + decode, so no storage node
  // sees more than its configured queue depth. Held across the fallback
  // too — the raw-object GET lands on the same node.
  SplitDispatcher::Lease lease;
  if (dispatcher_) lease = dispatcher_->Dispatch(split.node_hint);

  objectstore::TransferInfo info;
  auto dispatch = client_.ExecutePlan(plan, &info, config_.dispatch.call);
  info.AddTo(&stats);
  lease.AddBytes(info.bytes_received);

  Status dispatch_status;
  std::shared_ptr<columnar::Table> decoded;
  uint64_t object_version = 0;
  uint64_t data_bytes_received = 0;  // payload bytes behind `decoded`
  if (dispatch.ok()) {
    const ocs::OcsResult& result = *dispatch;
    // Slow-node detector: the transport deadline cannot see storage-side
    // time (it rides inside the response), so police it here. Modelled
    // time only (media read + injected delay, both simulation-defined):
    // the measured compute component in storage_compute_seconds scales
    // with sanitizer overhead and made this trip spuriously under TSan.
    const double storage_seconds = result.stats.media_read_seconds +
                                   result.stats.exec_delay_seconds;
    if (config_.dispatch.storage_deadline_seconds > 0 &&
        storage_seconds > config_.dispatch.storage_deadline_seconds) {
      dispatch_status = Status::DeadlineExceeded(
          "ocs: storage-side execution of " + split.object + " took " +
          std::to_string(storage_seconds) + "s, deadline " +
          std::to_string(config_.dispatch.storage_deadline_seconds) + "s");
    } else {
      // Storage's counters ride back on the result, the level-1
      // (row-group cache) hits and misses among them.
      stats += result.stats;
      object_version = result.stats.object_version;
      data_bytes_received = info.bytes_received;
      if (info.retries > 0) {
        stats.bytes_refetched_on_retry += info.bytes_received;
      }
      Stopwatch decode_timer;
      POCS_ASSIGN_OR_RETURN(decoded, ocs::OcsClient::DecodeTable(result));
      stats.decode_seconds = decode_timer.ElapsedSeconds();
    }
  } else {
    dispatch_status = dispatch.status();
  }

  if (!dispatch_status.ok()) {
    stats.failed_splits = 1;
    if (history_) {
      history_->RecordOffloadRejection(
          id_, split.bucket + "/" + split.object, dispatch_status);
    }
    if (!rpc::IsRetryable(dispatch_status)) return dispatch_status;
    const uint64_t bytes_before_fallback = stats.bytes_from_storage;
    POCS_ASSIGN_OR_RETURN(
        decoded, client_.FetchAndScan(plan,
                                      config_.dispatch.fallback_chunk_bytes,
                                      config_.dispatch.fallback_call, &stats,
                                      &object_version));
    data_bytes_received = stats.bytes_from_storage - bytes_before_fallback;
    stats.fallbacks = 1;
  }

  // A successful split enters the split-result cache under the version
  // its rows were computed from; a later identical (object, plan) scan
  // is then served without moving the data again.
  if (split_result_cache_) {
    auto value = std::make_shared<CachedSplitResult>();
    value->version = object_version;
    value->table = decoded;
    value->bytes_received = data_bytes_received;
    value->rows_scanned = stats.rows_scanned;
    value->row_groups_total = stats.row_groups_total;
    value->row_groups_skipped = stats.row_groups_skipped;
    split_result_cache_->Insert(SplitResultKey{object_id, fingerprint},
                                std::move(value), decoded->ByteSize());
  }
  return MakePageSource(spec, std::move(decoded), std::move(stats));
}

}  // namespace pocs::connectors
