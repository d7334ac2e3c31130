// Traced replay of one query through the program's public entry points.
//
// The timed root span is the real QueryEngine::Execute. The replay then
// re-runs the same query step by step, each call wrapped in a span:
//
//   query.replay                         (bench container, excluded)
//   ├─ sql.parse                         sql::ParseQuery
//   ├─ engine.plan                       AnalyzeQuery + PruneColumns +
//   │                                    RunConnectorOptimizer
//   ├─ connectors.ocs.get_splits         Connector::GetSplits
//   └─ split                             (bench container, excluded)
//      ├─ connectors.ocs.translate       connectors::TranslateScanSpec
//      ├─ substrait.serialize            substrait::SerializePlan
//      ├─ connectors.ocs.split_cache     split-result cache lookup + Stat;
//      │                                 a hit ends the split here
//      ├─ ocs.exec_plan                  StorageNode::ExecutePlan (direct)
//      ├─ rpc.call                       rpc::Channel::Call to the frontend
//      │  └─ rpc.remote_exec             the node's own reported exec time
//      │                                 (excluded: ocs.exec_plan has it)
//      ├─ ocs.decode_result              ocs::DecodeOcsResult
//      └─ columnar.ipc_decode            columnar::ipc::DeserializeTable
//
// After each split, its storage work is decomposed with direct calls whose
// spans are children of that split's ocs.exec_plan (so exec_plan's self
// time is what the decomposition does not explain):
//
//   objectstore.get → format.footer → compress.decompress / format.decode
//   (one pair per chunk the node read from media) → exec.execute_rel →
//   columnar.ipc_encode
//
// ocs.exec_plan runs before rpc.call so that it sees the cache state the
// timed query saw; rpc.call's own time is its wall minus the storage time
// the node reports, so cache hits it gets do not distort it. Each unit of
// the query's work is thus counted once in the layer self times.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "trace.h"
#include "workloads/testbed.h"

namespace perfbench {

// Counts the program returns at the replayed boundaries, summed.
struct ReplayCounts {
  uint64_t queries = 0;
  uint64_t splits = 0;
  uint64_t plan_bytes = 0;          // serialized Substrait plans
  uint64_t ipc_bytes = 0;           // Arrow-IPC result payloads
  uint64_t net_bytes = 0;           // CallResult request + response bytes
  double transfer_model_s = 0;      // CallResult::transfer_seconds
  uint64_t rpc_retries = 0;
  uint64_t rows_scanned = 0;        // OcsExecStats of the direct exec
  uint64_t rows_output = 0;
  uint64_t rows_dict_filtered = 0;
  double media_model_s = 0;
  uint64_t cache_hits = 0;          // node row-group cache, direct exec
  uint64_t cache_misses = 0;
  uint64_t exec_rows_in = 0;        // exec::ExecStats of the decomposition
  uint64_t exec_rows_out = 0;
  uint64_t decompressed_bytes = 0;  // output bytes of the timed Decompress

  void Merge(const ReplayCounts& o);
};

// Replays `sql` on `catalog` of `bed`. Spans go to `tracer` under
// `parent` (the root span of the timed Execute) on lanes `lane` (query
// steps) and `lane + 1` (storage decomposition).
pocs::Status ReplayQuery(pocs::workloads::Testbed& bed,
                         const std::string& catalog, const std::string& sql,
                         Tracer* tracer, uint64_t query, uint64_t parent,
                         uint32_t lane, ReplayCounts* counts);

}  // namespace perfbench
