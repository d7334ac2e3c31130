#include "replay.h"

#include <limits>
#include <memory>
#include <vector>

#include "columnar/ipc.h"
#include "compress/codec.h"
#include "connectors/ocs/ocs_connector.h"
#include "connectors/ocs/translator.h"
#include "engine/analyzer.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "exec/plan_executor.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "objectstore/select.h"
#include "objectstore/service.h"
#include "ocs/storage_node.h"
#include "sql/parser.h"
#include "substrait/serialize.h"

namespace perfbench {

using namespace pocs;

void ReplayCounts::Merge(const ReplayCounts& o) {
  queries += o.queries;
  splits += o.splits;
  plan_bytes += o.plan_bytes;
  ipc_bytes += o.ipc_bytes;
  net_bytes += o.net_bytes;
  transfer_model_s += o.transfer_model_s;
  rpc_retries += o.rpc_retries;
  rows_scanned += o.rows_scanned;
  rows_output += o.rows_output;
  rows_dict_filtered += o.rows_dict_filtered;
  media_model_s += o.media_model_s;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  exec_rows_in += o.exec_rows_in;
  exec_rows_out += o.exec_rows_out;
  decompressed_bytes += o.decompressed_bytes;
}

namespace {

struct ReplayContext {
  workloads::Testbed& bed;
  connectors::OcsConnector& conn;
  rpc::CallOptions call_options;
  Tracer* tracer;
  uint64_t query;
  uint32_t lane;
  ReplayCounts* counts;
};

Result<size_t> OwningNode(ocs::OcsCluster& cluster, const std::string& bucket,
                          const std::string& key) {
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    if (cluster.storage_node(i).store()->Stat(bucket, key).ok()) return i;
  }
  return Status::NotFound("no storage node holds " + bucket + "/" + key);
}

// Re-runs one split's storage work with direct calls. `exec_span` is the
// split's ocs.exec_plan span; `exec_stats` what that execution reported.
// Chunks beyond the number the node read from media (cache hits) are
// decoded untimed: they only feed ExecuteRel its input.
Status DecomposeStorage(const ReplayContext& ctx, const substrait::Plan& plan,
                        const ocs::StorageNode& node, uint64_t exec_span,
                        const ocs::OcsExecStats& exec_stats) {
  const uint32_t lane = ctx.lane + 1;
  const substrait::Rel* read = plan.root.get();
  const substrait::Rel* above_read = nullptr;
  while (read->input) {
    above_read = read;
    read = read->input.get();
  }

  objectstore::VersionedObject object;
  {
    ScopedSpan span(ctx.tracer, "objectstore.get", exec_span, ctx.query, lane);
    POCS_ASSIGN_OR_RETURN(object,
                          node.store()->GetVersioned(read->bucket, read->object));
    span.Arg("bytes", static_cast<double>(object.data->size()));
  }
  format::FileMeta meta;
  {
    ScopedSpan span(ctx.tracer, "format.footer", exec_span, ctx.query, lane);
    POCS_ASSIGN_OR_RETURN(
        meta, format::ReadFooter(ByteSpan(object.data->data(),
                                          object.data->size())));
  }

  // The row groups the node scans: the planner hint (when its version
  // matches) and the chunk statistics of the filter's conjuncts.
  POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr scan_schema,
                        substrait::OutputSchema(*read));
  std::vector<objectstore::SelectPredicate> pruning;
  if (above_read && above_read->kind == substrait::RelKind::kFilter) {
    ocs::CollectPruningTerms(above_read->predicate, *scan_schema, &pruning);
  }
  std::vector<bool> keep(meta.row_groups.size(), true);
  if (!read->row_group_hint.empty() && read->hint_version == object.version) {
    keep.assign(meta.row_groups.size(), false);
    for (uint32_t g : read->row_group_hint) {
      if (g < keep.size()) keep[g] = true;
    }
  }
  for (size_t g = 0; g < meta.row_groups.size(); ++g) {
    for (const auto& pred : pruning) {
      const int idx = meta.schema->FieldIndex(pred.column);
      if (idx >= 0 && keep[g] &&
          !objectstore::ChunkMayMatch(meta.row_groups[g].chunks[idx].stats,
                                      pred)) {
        keep[g] = false;
      }
    }
  }
  std::vector<int> columns = read->read_columns;
  if (columns.empty()) {
    for (size_t c = 0; c < meta.schema->num_fields(); ++c) {
      columns.push_back(static_cast<int>(c));
    }
  }

  const compress::Codec& codec = compress::GetCodec(meta.codec);
  uint64_t media_chunks = exec_stats.cache_hits == 0
                              ? std::numeric_limits<uint64_t>::max()
                              : exec_stats.cache_misses;
  auto input = std::make_shared<columnar::Table>(scan_schema);
  for (size_t g = 0; g < meta.row_groups.size(); ++g) {
    if (!keep[g]) continue;
    const format::RowGroupMeta& group = meta.row_groups[g];
    std::vector<columnar::ColumnPtr> cols;
    for (int c : columns) {
      const format::ChunkMeta& chunk = group.chunks[c];
      const ByteSpan raw(object.data->data() + chunk.offset, chunk.length);
      const columnar::Field& field = meta.schema->field(c);
      const bool timed = media_chunks > 0;
      if (timed) --media_chunks;
      Bytes page;
      {
        std::unique_ptr<ScopedSpan> span;
        if (timed) {
          span = std::make_unique<ScopedSpan>(ctx.tracer, "compress.decompress",
                                              exec_span, ctx.query, lane);
        }
        POCS_ASSIGN_OR_RETURN(page, codec.Decompress(raw));
        if (timed) ctx.counts->decompressed_bytes += page.size();
      }
      std::unique_ptr<ScopedSpan> span;
      if (timed) {
        span = std::make_unique<ScopedSpan>(ctx.tracer, "format.decode",
                                            exec_span, ctx.query, lane);
      }
      POCS_ASSIGN_OR_RETURN(
          columnar::ColumnPtr col,
          format::DecodePage(ByteSpan(page.data(), page.size()), field,
                             group.num_rows));
      cols.push_back(std::move(col));
    }
    input->AppendBatch(columnar::MakeBatch(scan_schema, std::move(cols)));
  }

  std::shared_ptr<columnar::Table> output;
  {
    ScopedSpan span(ctx.tracer, "exec.execute_rel", exec_span, ctx.query, lane);
    exec::ScanFactory factory = [&input](const substrait::Rel&)
        -> Result<std::unique_ptr<exec::BatchSource>> {
      return std::unique_ptr<exec::BatchSource>(
          std::make_unique<exec::TableSource>(input));
    };
    exec::ExecStats stats;
    POCS_ASSIGN_OR_RETURN(output, exec::ExecuteRel(*plan.root, factory, &stats));
    span.Arg("rows_in", static_cast<double>(stats.rows_scanned));
    span.Arg("rows_out", static_cast<double>(stats.rows_output));
    ctx.counts->exec_rows_in += stats.rows_scanned;
    ctx.counts->exec_rows_out += stats.rows_output;
  }
  {
    ScopedSpan span(ctx.tracer, "columnar.ipc_encode", exec_span, ctx.query,
                    lane);
    Bytes encoded = columnar::ipc::SerializeTable(*output);
    span.Arg("bytes", static_cast<double>(encoded.size()));
  }
  return Status::OK();
}

Status ReplaySplit(const ReplayContext& ctx, uint64_t parent,
                   const connector::TableHandle& table,
                   const connector::Split& split,
                   const connector::ScanSpec& spec) {
  ReplayCounts& counts = *ctx.counts;
  ++counts.splits;
  ocs::OcsCluster& cluster = ctx.bed.cluster();
  POCS_ASSIGN_OR_RETURN(size_t node_index,
                        OwningNode(cluster, split.bucket, split.object));
  const ocs::StorageNode& node = cluster.storage_node(node_index);

  ScopedSpan split_span(ctx.tracer, "split", parent, ctx.query, ctx.lane);
  split_span.Exclude();
  substrait::Plan plan;
  {
    ScopedSpan span(ctx.tracer, "connectors.ocs.translate", split_span.id(),
                    ctx.query, ctx.lane);
    POCS_ASSIGN_OR_RETURN(plan, connectors::TranslateScanSpec(table, split, spec));
  }
  Bytes request;
  {
    ScopedSpan span(ctx.tracer, "substrait.serialize", split_span.id(),
                    ctx.query, ctx.lane);
    request = substrait::SerializePlan(plan);
    span.Arg("bytes", static_cast<double>(request.size()));
  }
  counts.plan_bytes += request.size();

  // The channel the connector itself uses: compute node → frontend.
  const rpc::Channel channel(
      std::shared_ptr<netsim::Network>(std::shared_ptr<void>(),
                                       &ctx.bed.network()),
      ctx.bed.compute_node(), cluster.frontend_server());

  // Split-result cache, as CreatePageSource consults it: a cached result
  // whose version a metadata-only Stat confirms is served without storage.
  if (const auto& cache = ctx.conn.split_result_cache()) {
    ScopedSpan span(ctx.tracer, "connectors.ocs.split_cache", split_span.id(),
                    ctx.query, ctx.lane);
    auto cached = cache->Lookup(connectors::SplitResultKey{
        split.bucket + "/" + split.object, substrait::PlanFingerprint(plan)});
    bool hit = false;
    if (cached) {
      objectstore::TransferInfo info;
      auto stat = objectstore::StorageClient(channel).Stat(
          split.bucket, split.object, &info, ctx.call_options);
      counts.net_bytes += info.bytes_sent + info.bytes_received;
      counts.transfer_model_s += info.transfer_seconds;
      hit = stat.ok() && stat->version == cached->version;
    }
    span.Arg("hit", hit ? 1 : 0);
    if (hit) return Status::OK();
  }

  ocs::OcsResult direct;
  uint64_t exec_span = 0;
  {
    ScopedSpan span(ctx.tracer, "ocs.exec_plan", split_span.id(), ctx.query,
                    ctx.lane);
    exec_span = span.id();
    POCS_ASSIGN_OR_RETURN(direct, node.ExecutePlan(plan));
    const ocs::OcsExecStats& s = direct.stats;
    span.Arg("rows_scanned", static_cast<double>(s.rows_scanned));
    span.Arg("rows_output", static_cast<double>(s.rows_output));
    span.Arg("cache_hits", static_cast<double>(s.cache_hits));
    span.Arg("cache_misses", static_cast<double>(s.cache_misses));
    span.Arg("media_read_seconds", s.media_read_seconds);
  }
  counts.rows_scanned += direct.stats.rows_scanned;
  counts.rows_output += direct.stats.rows_output;
  counts.rows_dict_filtered += direct.stats.rows_dict_filtered;
  counts.media_model_s += direct.stats.media_read_seconds;
  counts.cache_hits += direct.stats.cache_hits;
  counts.cache_misses += direct.stats.cache_misses;

  rpc::CallResult call;
  uint64_t call_span = 0;
  double call_start_us = 0;
  {
    ScopedSpan span(ctx.tracer, "rpc.call", split_span.id(), ctx.query,
                    ctx.lane);
    call_span = span.id();
    call_start_us = span.start_us();
    POCS_ASSIGN_OR_RETURN(
        call, channel.Call("ExecutePlan", ByteSpan(request.data(), request.size()),
                           ctx.call_options));
    span.Arg("request_bytes", static_cast<double>(call.request_bytes));
    span.Arg("response_bytes", static_cast<double>(call.response_bytes));
    span.Arg("retries", static_cast<double>(call.retries));
    span.Arg("transfer_seconds", call.transfer_seconds);
  }
  counts.net_bytes += call.request_bytes + call.response_bytes;
  counts.transfer_model_s += call.transfer_seconds;
  counts.rpc_retries += call.retries;

  ocs::OcsResult remote;
  {
    ScopedSpan span(ctx.tracer, "ocs.decode_result", split_span.id(),
                    ctx.query, ctx.lane);
    BufferReader in(call.response.data(), call.response.size());
    POCS_ASSIGN_OR_RETURN(remote, ocs::DecodeOcsResult(&in));
  }
  {
    ScopedSpan span(ctx.tracer, "columnar.ipc_decode", split_span.id(),
                    ctx.query, ctx.lane);
    POCS_ASSIGN_OR_RETURN(
        auto decoded, columnar::ipc::DeserializeTable(ByteSpan(
                          remote.arrow_ipc.data(), remote.arrow_ipc.size())));
    span.Arg("bytes", static_cast<double>(remote.arrow_ipc.size()));
    span.Arg("rows", static_cast<double>(decoded->num_rows()));
  }
  counts.ipc_bytes += remote.arrow_ipc.size();

  // The node measures its own execution wall and reports it scaled by the
  // modelled CPU slowdown; that part of rpc.call is storage work, which
  // ocs.exec_plan already times.
  Span remote_exec;
  remote_exec.name = "rpc.remote_exec";
  remote_exec.id = ctx.tracer->NewId();
  remote_exec.parent = call_span;
  remote_exec.query = ctx.query;
  remote_exec.lane = ctx.lane;
  remote_exec.start_us = call_start_us;
  remote_exec.dur_us = (remote.stats.storage_compute_seconds -
                        remote.stats.exec_delay_seconds) /
                       ctx.bed.config().cluster.storage.cpu_slowdown * 1e6;
  remote_exec.excluded = true;
  ctx.tracer->Record(std::move(remote_exec));
  split_span.End();

  return DecomposeStorage(ctx, plan, node, exec_span, direct.stats);
}

Status ReplayScan(const ReplayContext& ctx, uint64_t parent,
                  const engine::PlanNode& scan) {
  connector::SplitPlan split_plan;
  {
    ScopedSpan span(ctx.tracer, "connectors.ocs.get_splits", parent, ctx.query,
                    ctx.lane);
    POCS_ASSIGN_OR_RETURN(split_plan,
                          ctx.conn.GetSplits(scan.table, scan.scan_spec));
    span.Arg("splits", static_cast<double>(split_plan.splits.size()));
    span.Arg("splits_pruned", static_cast<double>(split_plan.splits_pruned));
  }
  for (const connector::Split& split : split_plan.splits) {
    POCS_RETURN_NOT_OK(
        ReplaySplit(ctx, parent, scan.table, split, scan.scan_spec));
  }
  return Status::OK();
}

}  // namespace

Status ReplayQuery(workloads::Testbed& bed, const std::string& catalog,
                   const std::string& sql, Tracer* tracer, uint64_t query,
                   uint64_t parent, uint32_t lane, ReplayCounts* counts) {
  connector::Connector* conn = bed.engine().GetConnector(catalog);
  auto* ocs_conn = dynamic_cast<connectors::OcsConnector*>(conn);
  if (ocs_conn == nullptr) {
    return Status::InvalidArgument("replay needs an OCS catalog: " + catalog);
  }
  ReplayContext ctx{bed,   *ocs_conn, ocs_conn->config().dispatch.call,
                    tracer, query, lane, counts};
  ++counts->queries;

  ScopedSpan root(tracer, "query.replay", parent, query, lane);
  root.Exclude();

  sql::Query parsed;
  {
    ScopedSpan span(tracer, "sql.parse", root.id(), query, lane);
    POCS_ASSIGN_OR_RETURN(parsed, sql::ParseQuery(sql));
  }

  // Same steps, in the same order, as QueryEngine::Execute and its join
  // path: the build side negotiates its own pushdown.
  std::vector<const engine::PlanNode*> scans;
  engine::PlanNodePtr plan;
  {
    ScopedSpan span(tracer, "engine.plan", root.id(), query, lane);
    const std::string schema =
        parsed.schema_name.empty() ? "default" : parsed.schema_name;
    POCS_ASSIGN_OR_RETURN(connector::TableHandle table,
                          conn->GetTableHandle(schema, parsed.table_name));
    connector::TableHandle build_table;
    const bool has_join = !parsed.join_table_name.empty();
    if (has_join) {
      POCS_ASSIGN_OR_RETURN(
          build_table, conn->GetTableHandle(schema, parsed.join_table_name));
    }
    POCS_ASSIGN_OR_RETURN(
        plan, engine::AnalyzeQuery(parsed, table,
                                   has_join ? &build_table : nullptr));
    POCS_RETURN_NOT_OK(engine::PruneColumns(plan));
    POCS_ASSIGN_OR_RETURN(engine::LocalOptimizerResult local,
                          engine::RunConnectorOptimizer(plan, *conn));
    plan = local.plan;
    for (engine::PlanNode* n = plan.get(); n; n = n->input.get()) {
      if (n->kind != engine::NodeKind::kJoin) continue;
      POCS_ASSIGN_OR_RETURN(engine::LocalOptimizerResult build_local,
                            engine::RunConnectorOptimizer(n->build, *conn));
      n->build = build_local.plan;
      scans.push_back(engine::FindScan(*n->build));
    }
    scans.push_back(engine::FindScan(*plan));
  }
  for (const engine::PlanNode* scan : scans) {
    if (scan == nullptr) return Status::Internal("replayed plan lost its scan");
    POCS_RETURN_NOT_OK(ReplayScan(ctx, root.id(), *scan));
  }
  return Status::OK();
}

}  // namespace perfbench
