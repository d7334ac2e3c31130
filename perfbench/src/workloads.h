// The benchmark's workloads: what each one sets up, which queries its
// clients send, and the closed loops that time them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "engine/engine.h"
#include "format/parquet_lite.h"
#include "replay.h"
#include "trace.h"
#include "workloads/testbed.h"

namespace perfbench {

// Shared by every workload: Laghos, Deep Water and TPC-H lineitem each get
// kFilesPerDataset files of kRowsPerGroup-row groups, and the engine runs a
// query's splits on one worker thread, one after another, so traced layers
// add up to the query's wall time.
constexpr size_t kFilesPerDataset = 4;
constexpr size_t kRowsPerGroup = 1 << 12;
constexpr size_t kEngineWorkers = 1;
// Connector caches, when a workload enables them. 32 KiB per split-result
// cache shard admits small results (partial aggregates, Q6's filtered rows,
// the join's build side) but never large filtered or projected batches.
constexpr uint64_t kSplitCacheBytes = 256ull << 10;
constexpr uint64_t kMetadataCacheBytes = 4ull << 20;
// The writer client overwrites one object per this many reader queries;
// workloads without one write a probe object every this many rounds.
constexpr uint64_t kReadsPerWrite = 1000;
constexpr uint64_t kRoundsPerProbePut = 3;

struct WorkloadSpec {
  std::string name;
  size_t rows_per_file = 0;
  pocs::compress::CodecType codec = pocs::compress::CodecType::kNone;
  uint64_t rowgroup_cache_bytes = 0;  // per storage node
  bool filter_only = false;       // the catalog pushes filters only
  bool extended_mix = false;      // adds TpchJoinQuery (with the supplier
                                  // table) and LaghosSelectiveQuery
  bool connector_caches = false;  // split-result and metadata caches
  int warmup_passes = 1;
  size_t storage_nodes = 1;
  size_t readers = 1;   // closed-loop query clients, one per tenant
  bool writer = false;  // one more client overwriting objects
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct NamedQuery {
  std::string name;
  std::string sql;
};

// The answer a query must return: the no-pushdown catalog's result.
struct Reference {
  uint64_t rows = 0;
  uint64_t fingerprint = 0;  // workloads::ResultRowFingerprint
  pocs::columnar::RecordBatchPtr table;
};

// One stored table object and its decoded content, kept so that writers
// can re-encode it.
struct StoredObject {
  std::string bucket;
  std::string key;
  std::shared_ptr<pocs::columnar::Table> table;
};

// One set-up testbed of a workload.
struct Bench {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::unique_ptr<pocs::workloads::Testbed> bed;
  std::string catalog;
  std::vector<NamedQuery> queries;
  std::vector<Reference> reference;  // parallel to queries
  std::vector<StoredObject> objects;
  std::vector<std::string> tenants;  // one per reader client

  // Generates the seeded datasets, ingests them, fingerprints every
  // query on the no-pushdown catalog and runs the warm-up passes (whose
  // answers are checked too).
  static pocs::Result<std::unique_ptr<Bench>> SetUp(const WorkloadSpec& spec,
                                                    uint64_t seed);

  bool Check(size_t query, const pocs::engine::QueryResult& result) const;
  pocs::format::WriterOptions writer_options() const;
  uint64_t TotalRows() const;
};

// Per-client outcome of a timed phase.
struct LoopStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;   // errors other than refusal
  uint64_t refused = 0;  // admission refused the query
  uint64_t wrong = 0;    // answer differs from the reference
  std::vector<double> latency_s;
  std::vector<double> model_s;  // QueryMetrics::total
  std::vector<double> bytes_from_storage;
  std::vector<double> put_s;
  // Per reader client: completed queries per second spent in them (time
  // spent checking answers is left out).
  std::vector<double> client_qps;
  uint64_t put_attempted = 0;
  uint64_t put_failed = 0;
  // Sums over completed queries, from their QueryMetrics.
  double admission_wait_s = 0;
  double post_scan_s = 0;
  uint64_t splits_planned = 0;
  uint64_t splits_pruned = 0;
  uint64_t metadata_hits = 0;
  uint64_t metadata_misses = 0;
  uint64_t metadata_stale = 0;

  void Merge(const LoopStats& o);
};

// Row-group cache hits and misses summed over the storage nodes.
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
};
CacheCounts RowGroupCacheCounts(const Bench& bench);
CacheCounts SplitCacheCounts(const Bench& bench);

// Untimed-by-trace phase: every client runs its closed loop for `seconds`.
// Wall time of the whole phase goes to *wall_s.
LoopStats RunTimed(Bench& bench, double seconds, double* wall_s);

// Traced phase. Single-client workloads run rounds of the query mix: first
// every timed root (QueryEngine::Execute), then every replay, so a replay
// finds the caches as its root did. mixed_rw readers replay each query
// right after its root; its writer traces its puts.
// loop.latency_s holds the engine.execute root span of every query.
struct TraceResult {
  LoopStats loop;
  ReplayCounts counts;
  uint64_t replay_failures = 0;
};
TraceResult RunTraced(Bench& bench, double seconds, Tracer* tracer);

}  // namespace perfbench
