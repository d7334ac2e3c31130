// QueryEngine — the minipresto facade: coordinator-style query execution
// over pluggable connectors (paper Fig. 3/Fig. 4).
//
//   Execute(sql):
//     parse → analyze (logical plan) → global optimize (column pruning)
//     → connector local optimizer (pushdown negotiation)
//     → split generation → parallel per-split execution (workers)
//     → merge stage (final aggregation / sort / top-N / limit / output)
//
// Every query returns the result table plus a metrics block with the
// measured-and-modelled stage breakdown (Table 3's rows) and exact data
// movement (Fig. 5's second axis).
#pragma once

#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "connector/spi.h"
#include "engine/admission.h"
#include "engine/plan.h"
#include "engine/time_model.h"

namespace pocs::engine {

struct EngineConfig {
  TimeModelConfig time_model;
  size_t worker_threads = 8;  // also used for real parallel execution
  // Multi-tenant admission control (DESIGN.md §12). Disabled by default:
  // queries run unqueued, exactly as before this layer existed.
  AdmissionConfig admission;
  // Per-query cap on concurrently executing splits (0 = unbounded).
  // Backpressure against wide scans: a 64-split query may only hold this
  // many workers/storage dispatches at once.
  size_t max_inflight_splits = 0;
  // Sizing of the join-key bloom filter pushed to storage for semi-join
  // reduction (DESIGN.md §14): bits per distinct build-side key. 10 bits
  // ≈ 1% false positives (re-filtered engine-side, so this only trades
  // bytes moved, never correctness). Tests shrink it to force false
  // positives through the engine-side exact probe.
  double join_bloom_bits_per_key = 10.0;
};

// Per-call execution options (Presto's session properties, reduced to
// what admission needs).
struct QueryOptions {
  std::string tenant = "default";
  // Pre-enqueued admission ticket. Drivers that build a deterministic
  // arrival schedule enqueue on one thread (while the controller is
  // paused) and hand each runner its ticket here; when null and
  // admission is enabled, Execute enqueues under `tenant` itself.
  std::shared_ptr<AdmissionTicket> ticket;
};

// Older name of the per-query record; perfbench and other callers use it.
using QueryMetrics = connector::QueryStats;

struct QueryResult {
  columnar::RecordBatchPtr table;  // combined result
  // The query's one stats record; listeners receive the same one as
  // QueryEvent::stats.
  connector::QueryStats metrics;
  std::string logical_plan;    // before connector optimization
  std::string optimized_plan;  // after pushdown rewriting
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineConfig config);

  // Register a connector under its id (the "catalog" of Presto).
  void RegisterConnector(std::shared_ptr<connector::Connector> connector);
  connector::Connector* GetConnector(const std::string& id) const;

  void AddEventListener(std::shared_ptr<connector::EventListener> listener);

  // Execute SQL against `catalog` (connector id); the query's table is
  // resolved as schema_name.table_name (schema defaults to "default").
  Result<QueryResult> Execute(const std::string& sql,
                              const std::string& catalog);
  Result<QueryResult> Execute(const std::string& sql,
                              const std::string& catalog,
                              const QueryOptions& options);

  const EngineConfig& config() const { return config_; }

  // Null unless config.admission.enabled.
  AdmissionController* admission_controller() const {
    return admission_.get();
  }

 private:
  EngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::string, std::shared_ptr<connector::Connector>> connectors_;
  std::vector<std::shared_ptr<connector::EventListener>> listeners_;
  std::atomic<uint64_t> next_query_id_{0};
};

}  // namespace pocs::engine
