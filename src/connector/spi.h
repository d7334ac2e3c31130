// Connector Service Provider Interface — the engine-side contract every
// storage connector implements, mirroring the Presto SPI surfaces the
// paper builds on (§3.4): ConnectorMetadata (table handles), the split
// manager, the ConnectorPlanOptimizer hook (local optimizer), the
// PageSourceProvider, and the EventListener for pushdown monitoring.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "common/counters.h"
#include "metastore/metastore.h"
#include "substrait/expr.h"
#include "substrait/rel.h"

namespace pocs::connector {

// Resolved reference to a table inside a connector's catalog.
struct TableHandle {
  std::string connector_id;
  metastore::TableInfo info;
};

// Unit of parallel scan work: one data object of the table.
struct Split {
  std::string bucket;
  std::string object;
  // Storage node expected to serve this split (-1 = unknown). Filled by
  // connectors that resolve placement up front so the load-aware
  // dispatcher can shape per-node traffic; purely advisory.
  int node_hint = -1;
  // Row groups the planner's stats-based pruning kept (empty = no hint,
  // scan all). Advisory: storage honors the hint only when
  // `stats_version` still matches the object, so stale statistics can
  // cost performance but never rows (DESIGN.md §13).
  std::vector<uint32_t> row_groups{};
  uint64_t stats_version = 0;  // object version the hint was computed from
  // Object version a pushed join-key bloom filter was pinned to at plan
  // time (0 = unknown). Storage applies the bloom only while the object
  // still has this version; see Rel::bloom_version (DESIGN.md §14).
  uint64_t bloom_version = 0;
};

// Split-planning outcome: the surviving splits plus the pruning and
// metadata-cache accounting the engine folds into QueryStats. Planned =
// pruned + surviving.
struct SplitPlan {
  std::vector<Split> splits;
  uint64_t splits_planned = 0;  // candidate splits before pruning
  uint64_t splits_pruned = 0;   // dropped with zero data RPCs issued
  // Metadata-cache outcomes during planning (one per candidate object
  // when pruning ran; all zero for connectors without a stats cache).
  uint64_t metadata_cache_hits = 0;    // cached + version-validated fresh
  uint64_t metadata_cache_misses = 0;  // not cached, fetched via stats RPC
  uint64_t metadata_cache_stale = 0;   // cached but version moved; refetched
  uint64_t metadata_cache_errors = 0;  // stats path failed; split unpruned
};

// One operator absorbed into the table scan by the local optimizer, in
// execution order. This is the "modified TableScan operator which
// encapsulates the pushdown operators" of §4.
struct PushedOperator {
  enum class Kind : uint8_t {
    kFilter,
    kProject,
    kPartialAggregation,  // grouped partial aggregation (merge at compute)
    kPartialTopN,         // per-split top-N candidates (merge at compute)
    kPartialLimit,        // per-split row cap (merge limit at compute)
    kJoinKeyBloom,        // semi-join bloom reduction on one scan column
  };
  Kind kind = Kind::kFilter;

  substrait::Expression predicate;  // kFilter

  std::vector<substrait::Expression> expressions;  // kProject
  std::vector<std::string> output_names;

  std::vector<int> group_keys;  // kPartialAggregation (input indices)
  std::vector<substrait::AggregateSpec> aggregates;  // already partial specs

  std::vector<substrait::SortField> sort_fields;  // kPartialTopN
  int64_t limit = -1;

  // kJoinKeyBloom: seeded bloom filter over the build side's join keys,
  // applied to scan-output column `bloom_column` (common::BloomFilter
  // wire state). `bloom_key_count` is the number of distinct build keys
  // (selectivity estimation only).
  std::vector<uint64_t> bloom_words;
  uint32_t bloom_hashes = 0;
  uint64_t bloom_seed = 0;
  int bloom_column = -1;
  uint64_t bloom_key_count = 0;
};

std::string_view PushedOperatorKindName(PushedOperator::Kind kind);

// Everything the page source must execute at (or near) storage for one
// scan: column pruning plus the absorbed operator pipeline.
struct ScanSpec {
  std::vector<int> columns;  // indices into the table schema; empty = all
  std::vector<PushedOperator> operators;
  // Column projection applied AFTER the pushed operators: indices into
  // the pushed pipeline's output that the residual plan actually needs.
  // Empty = all. This is how a filter-only pushdown avoids shipping the
  // predicate columns back (S3 Select's SELECT-list behaviour).
  std::vector<int> result_columns;
  // Schema of the pages the source returns (after pushed operators and
  // the result-column projection).
  columnar::SchemaPtr output_schema;

  bool HasOperator(PushedOperator::Kind kind) const {
    for (const auto& op : operators) {
      if (op.kind == kind) return true;
    }
    return false;
  }
};

// One split's counters (common/counters.h): what storage reported for
// its plan plus what the connector counted around the call. The engine
// folds them into the query's QueryStats with `+=` and its simulated
// timing (DESIGN.md §4).
struct PageSourceStats : SplitCounters {};

// Streams pages (record batches) for one split, with pushed operators
// already applied by whatever the connector talks to.
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual columnar::SchemaPtr schema() const = 0;
  // nullptr at end of stream.
  virtual Result<columnar::RecordBatchPtr> Next() = 0;
  virtual const PageSourceStats& stats() const = 0;
};

// Decision record for one offered operator (feeds the EventListener and
// the pushdown history; see §4 "Pushdown Monitoring").
struct PushdownDecision {
  PushedOperator::Kind kind;
  bool accepted = false;
  double estimated_selectivity = 1.0;  // estimated output/input ratio
  std::string reason;                  // human-readable justification
};

class Connector {
 public:
  virtual ~Connector() = default;
  virtual std::string id() const = 0;

  // -- ConnectorMetadata ----------------------------------------------------
  virtual Result<TableHandle> GetTableHandle(const std::string& schema_name,
                                             const std::string& table) = 0;

  // -- ConnectorSplitManager --------------------------------------------------
  // Runs after pushdown negotiation: `spec` carries the accepted
  // operators so connectors with object statistics can prune splits the
  // predicates prove empty before any data RPC is issued.
  virtual Result<SplitPlan> GetSplits(const TableHandle& table,
                                      const ScanSpec& spec) = 0;

  // -- ConnectorPlanOptimizer -------------------------------------------------
  // Operator pushdown is negotiated node by node: the engine walks the
  // plan bottom-up and offers every candidate; the connector accepts by
  // appending to the ScanSpec and refuses the kinds it does not push.
  // `decision` records accept/reject with the estimated selectivity
  // (monitoring).
  virtual Result<bool> OfferPushdown(const TableHandle& table,
                                     const PushedOperator& op,
                                     ScanSpec* spec,
                                     PushdownDecision* decision) = 0;

  // -- PageSourceProvider -----------------------------------------------------
  virtual Result<std::unique_ptr<PageSource>> CreatePageSource(
      const TableHandle& table, const Split& split, const ScanSpec& spec) = 0;
};

// One named stage or operator of a query with its timing and row flow
// (QueryStats::operator_timings). Stage names are stable identifiers:
// "parse", "plan_analysis", "ir_generation", "scan_transfer",
// "post_scan", plus "merge.<op>" for each merge-stage operator.
struct OperatorTiming {
  std::string name;
  double seconds = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

// The one per-query record: returned as engine::QueryResult::metrics and
// carried as QueryEvent::stats — the counterpart of Presto's
// QueryStatistics, and the numbers behind the paper's Table 3 (stage
// breakdown) and Fig. 5 (bytes moved). The counters are the sums of every
// split's PageSourceStats plus the engine's own (common/counters.h).
struct QueryStats : QueryCounters {
  // Resource group the query ran under ("default" when admission is off).
  std::string tenant = "default";
  // Every operator offered to a connector, in negotiation order.
  std::vector<PushdownDecision> pushdown_decisions;
  std::vector<OperatorTiming> operator_timings;
};

// Runtime query events (Presto's EventListener).
struct QueryEvent {
  std::string query_id;
  std::string connector_id;
  QueryStats stats;
};

class EventListener {
 public:
  virtual ~EventListener() = default;
  virtual void QueryCompleted(const QueryEvent& event) = 0;
};

}  // namespace pocs::connector
