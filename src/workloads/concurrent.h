// Seeded concurrent-workload driver (DESIGN.md §12): N interleaved
// queries across M tenants against one testbed, exercising admission
// control, bounded in-flight splits, and load-aware split dispatch all
// at once. The basis of the `ctest -L concurrency` tier and the
// concurrent section of the bench report.
//
// Determinism contract. The driver derives a deterministic arrival
// schedule from the seed (which tenant submits which query template, in
// which order), then:
//   1. pauses the admission controller,
//   2. enqueues the whole schedule sequentially on the driving thread —
//      so every accept/reject outcome is decided by the schedule alone,
//   3. spawns one runner thread per accepted query (each waits on its
//      pre-enqueued ticket), unpauses, and joins.
// Execution interleaving is then free to vary, but (a) each query's
// rows are independent of interleaving (splits merge associatively and
// the engine orders results), (b) the cumulative admission.* counters
// are pure functions of the schedule, and (c) per-node dispatch.plans
// counters depend only on placement, which is deterministic. The replay
// test asserts all three bit-for-bit across two fresh testbeds.
//
// Timing (per-tenant p50/p95/p99 simulated seconds, queue waits) is
// measured, not modelled — reported, never gated exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/testbed.h"

namespace pocs::workloads {

// One tenant of the concurrent workload and its resource-group shape.
struct TenantSpec {
  std::string name;
  uint32_t weight = 1;
  uint32_t max_concurrent = 2;
  uint32_t max_queued = 8;
};

struct ConcurrentWorkloadConfig {
  uint64_t seed = 1;
  // Total queries in the schedule, spread across tenants by seeded
  // draws over ChaosQueries() templates.
  size_t num_queries = 24;
  std::vector<TenantSpec> tenants;  // empty → DefaultTenants()
  std::string catalog = "ocs";
  // Global running-query cap (the coordinator's concurrency budget).
  uint32_t global_max_concurrent = 4;
};

// The standard three-tenant mix: a heavy interactive tenant, a batch
// tenant with one slot, and a bursty ad-hoc tenant with a short queue
// (whose overflow exercises the rejection path).
std::vector<TenantSpec> DefaultTenants();

// Testbed tuned for the concurrent tier: 3 storage nodes, least-loaded
// placement, admission + load-aware dispatch on, bounded in-flight
// splits, and the row-group cache off (its hit pattern depends on
// interleaving, which would poison the exact-counter contract).
TestbedConfig MakeConcurrentTestbedConfig(const ConcurrentWorkloadConfig& cfg);

// Outcome of one scheduled query, in schedule order.
struct QueryOutcome {
  std::string tenant;
  std::string query;       // template name, e.g. "tpch_q6"
  bool rejected = false;   // refused at Enqueue (queue full)
  uint64_t rows = 0;
  uint64_t row_fingerprint = 0;  // order-independent hash of result rows
  double sim_seconds = 0;        // simulated end-to-end
  double queue_wait_seconds = 0;
};

struct TenantReport {
  std::string tenant;
  uint64_t queries = 0;   // accepted + rejected arrivals
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  double p50_seconds = 0;  // over admitted queries' sim_seconds
  double p95_seconds = 0;
  double p99_seconds = 0;
  double queue_wait_p95_seconds = 0;
};

struct ConcurrentWorkloadReport {
  std::vector<QueryOutcome> outcomes;  // schedule order
  std::vector<TenantReport> tenants;   // tenant-name order
  // Exact (schedule-deterministic) aggregates.
  uint64_t admission_queued = 0;
  uint64_t admission_admitted = 0;
  uint64_t admission_rejected = 0;
  uint64_t rows_total = 0;
  // Order-independent fold of every outcome's (tenant, query, rejected,
  // rows, row_fingerprint) — the replay-equality witness.
  uint64_t result_fingerprint = 0;
  // Routing outcome: cumulative dispatched plans per storage node.
  std::vector<uint64_t> node_plans;
  uint64_t max_node_plans = 0;
  uint64_t min_node_plans = 0;
};

// Runs the schedule on `bed` (already ingested via IngestChaosDatasets;
// bed must be built from MakeConcurrentTestbedConfig or equivalent —
// admission enabled, dispatcher shared). Errors other than admission
// rejection fail the run.
Result<ConcurrentWorkloadReport> RunConcurrentWorkload(
    Testbed* bed, const ConcurrentWorkloadConfig& config);

// One canonical string per result row: columns joined by '|', NULL as
// "NULL", doubles at `float_digits` significant digits (9 by default, so
// sums taken in a different order print alike) and everything else as
// Datum::ToString. Rows are sorted unless `order_sensitive`. Every
// cross-path comparison of query answers goes through this one rendering.
std::vector<std::string> CanonicalRows(const columnar::RecordBatch& batch,
                                       bool order_sensitive = false,
                                       int float_digits = 9);

// The driver's order-independent result-row hash (canonical row strings
// hashed and summed) — exposed so tests can fingerprint a serial
// reference run and compare it to QueryOutcome::row_fingerprint.
uint64_t ResultRowFingerprint(const columnar::RecordBatch& batch);

}  // namespace pocs::workloads
