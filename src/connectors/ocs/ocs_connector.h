// The Presto-OCS connector — the paper's core contribution (§3.4, §4).
//
// Extends the engine's connector SPI to exploit OCS's full in-storage
// operator set. During connector-local optimization the Selectivity
// Analyzer sizes each offered operator's data-reduction potential from
// metastore statistics and the Operator Extractor records accepted
// operators (with their conditions) in the scan spec. At execution time
// the PageSourceProvider translates the spec into a Substrait-IR plan,
// ships it to the OCS frontend over the (simulated) gRPC channel, and
// deserializes the Arrow columnar results into engine pages.
//
// Aggregations are pushed in their PARTIAL form and merged compute-side
// (§3.4 step 2's "partially computed results"). A top-N or limit above a
// pushed aggregation is additionally bounded per split only when a group
// key is a bare table column whose values never span two data objects
// (TableInfo::object_disjoint, computed at registration) — true of the
// paper's spatially partitioned HPC datasets; see DESIGN.md.
//
// Concurrency: the connector itself holds no mutex — its only shared
// mutable state is the split-result cache (a ShardedLruCache, internally
// locked with annotated pocs::Mutex shards, DESIGN.md §11) and the
// metrics it records (lock-free atomics). Everything else is immutable
// after construction, so per-split workers share it freely.
#pragma once

#include <memory>
#include <string>

#include "common/hash.h"
#include "common/lru_cache.h"
#include "connector/spi.h"
#include "connectors/ocs/metadata_cache.h"
#include "connectors/ocs/pushdown_history.h"
#include "connectors/ocs/selectivity_analyzer.h"
#include "connectors/ocs/split_dispatcher.h"
#include "metastore/metastore.h"
#include "ocs/client.h"

namespace pocs::connectors {

// How pushdown dispatches cope with storage-side failure: the rpc retry
// budget for ExecutePlan and a deadline on the *storage-reported* time
// (catches slow/degraded nodes the transport deadline cannot see). A
// dispatch that exhausts them with a retryable error always falls back to
// the engine-side scan (OcsClient::FetchAndScan: raw GET + the storage
// node's scan of the same plan, run locally) instead of failing the
// query.
struct OcsDispatchPolicy {
  rpc::CallOptions call{.max_attempts = 3};
  // Options for each of the fallback's raw GETs; max_attempts also
  // bounds how often the fallback restarts a read during which the
  // object changed. Kept separate from `call`: a deadline tuned for
  // small pushdown results would starve the (much larger, but
  // unavoidable) raw-object transfer.
  rpc::CallOptions fallback_call{.max_attempts = 3};
  // Reject dispatches whose storage-reported *modelled* time (media read
  // + injected exec delay) exceeds this (0 disables) — the "slow node"
  // detector. Deliberately excludes the measured wall-clock compute
  // component: under sanitizers (TSan ~10-20x) measured time inflates
  // while modelled time does not, and a detector on wall time turned
  // every debug-tsan run into a false slow-node trip.
  double storage_deadline_seconds = 0;
  // The size of the ranges the fallback reads the object in; 0 reads it
  // in one GET. Smaller ranges bound what an rpc-level retry re-sends:
  // one lost range, not the whole object.
  uint64_t fallback_chunk_bytes = 0;
};

struct OcsConnectorConfig {
  OcsDispatchPolicy dispatch;
  SelectivityConfig selectivity;
  // An operator is pushed when its estimated reduction (1 − output/input)
  // is at least this threshold. The default (-inf, i.e. no threshold)
  // reproduces the paper's behaviour: every eligible operator is
  // offloaded — including expression projections that *grow* rows, which
  // is exactly the Fig. 5(b)/(c) negative result. Raise the threshold to
  // make the analyzer veto non-reducing pushdowns (ablation).
  double min_reduction = -1e300;
  // Expression projections have no intrinsic data reduction; pushing them
  // trades compute-node cycles for storage cycles (the paper's Q2 finds
  // this can hurt). They are pushed iff this flag is set.
  bool pushdown_filter = true;
  bool pushdown_projection = true;
  bool pushdown_aggregation = true;
  bool pushdown_topn = true;
  // Join-key bloom filters (semi-join reduction, DESIGN.md §14): the
  // engine builds a bloom over a small dimension table's join keys and
  // attaches it to the fact-table scan so storage prunes non-matching
  // rows before any bytes cross the network. Purely advisory — false
  // positives are re-filtered engine-side, and a stale version pin
  // disables the filter wholesale.
  bool pushdown_join_bloom = true;
  // Byte budget of the split-result cache (0 disables): decoded result
  // tables keyed by (object, Substrait plan fingerprint), validated
  // against the object's current version with a metadata-only Stat and
  // then served without any data RPC.
  uint64_t split_result_cache_bytes = 0;
  // Byte budget of the split-planning metadata cache (0 disables): each
  // object's footer, fetched via the DescribeObject RPC and revalidated
  // against object versions. When enabled, GetSplits prunes splits whose
  // stats prove the pushed filter unsatisfiable before any data RPC is
  // issued, and hints surviving row groups (DESIGN.md §13).
  uint64_t metadata_cache_bytes = 0;
};

// One cached split result: the decoded table one (object, plan
// fingerprint) pair produced, plus the cold-run accounting a hit replays
// into its PageSourceStats.
struct CachedSplitResult {
  uint64_t version = 0;  // object version the table was computed from
  std::shared_ptr<columnar::Table> table;
  uint64_t bytes_received = 0;  // network payload bytes the cold run moved
  uint64_t rows_scanned = 0;
  uint64_t row_groups_total = 0;
  uint64_t row_groups_skipped = 0;
};

struct SplitResultKey {
  std::string object;  // "bucket/key"
  uint64_t fingerprint = 0;
  bool operator==(const SplitResultKey&) const = default;
};

struct SplitResultKeyHash {
  size_t operator()(const SplitResultKey& k) const {
    return static_cast<size_t>(HashCombine(HashString(k.object), k.fingerprint));
  }
};

using SplitResultCache =
    ShardedLruCache<SplitResultKey, CachedSplitResult, SplitResultKeyHash>;

// Split planning (DESIGN.md §13): one split per object of `table`, less
// the objects whose footers prove that the spec's leading pushed filter
// matches no row, with row-group hints and bloom version pins. With
// `locate`, each split gets its storage node as a hint and the splits
// are interleaved by node. A null `metadata_cache` turns pruning off.
// `call` carries the Stat and Locate calls; a failed one degrades the
// split (unpruned, unpinned or unhinted), never the plan. Planning sees
// the frontend only through `client`, which has no data calls.
Result<connector::SplitPlan> PlanSplits(const ocs::PlanningClient& client,
                                        const MetadataCache* metadata_cache,
                                        const rpc::CallOptions& call,
                                        bool locate,
                                        const connector::TableHandle& table,
                                        const connector::ScanSpec& spec);

class OcsConnector final : public connector::Connector {
 public:
  // `history` is optional; when present, offload rejections (exhausted
  // pushdown dispatches) are recorded there for monitoring. `dispatcher`
  // is optional; when present, GetSplits resolves placement hints and
  // CreatePageSource dispatches under per-node load leases (DESIGN.md
  // §12) — typically one instance shared by every connector fronting the
  // same cluster.
  OcsConnector(std::string id,
               std::shared_ptr<metastore::Metastore> metastore,
               ocs::OcsClient client, OcsConnectorConfig config,
               std::shared_ptr<PushdownHistory> history = nullptr,
               std::shared_ptr<SplitDispatcher> dispatcher = nullptr)
      : id_(std::move(id)),
        metastore_(std::move(metastore)),
        client_(std::move(client)),
        planner_(client_.channel()),
        config_(config),
        history_(std::move(history)),
        dispatcher_(std::move(dispatcher)) {
    if (config_.split_result_cache_bytes > 0) {
      split_result_cache_ = std::make_shared<SplitResultCache>(LruCacheConfig{
          .byte_budget = config_.split_result_cache_bytes,
          .shards = 8,
          .metric_prefix = "ocs.splitresult_cache"});
    }
    if (config_.metadata_cache_bytes > 0) {
      metadata_cache_ =
          std::make_shared<MetadataCache>(config_.metadata_cache_bytes);
    }
  }

  std::string id() const override { return id_; }

  Result<connector::TableHandle> GetTableHandle(
      const std::string& schema_name, const std::string& table) override;

  Result<connector::SplitPlan> GetSplits(
      const connector::TableHandle& table,
      const connector::ScanSpec& spec) override;

  Result<bool> OfferPushdown(const connector::TableHandle& table,
                             const connector::PushedOperator& op,
                             connector::ScanSpec* spec,
                             connector::PushdownDecision* decision) override;

  Result<std::unique_ptr<connector::PageSource>> CreatePageSource(
      const connector::TableHandle& table, const connector::Split& split,
      const connector::ScanSpec& spec) override;

  const OcsConnectorConfig& config() const { return config_; }

  // The load-aware dispatcher (nullptr when disabled).
  const std::shared_ptr<SplitDispatcher>& dispatcher() const {
    return dispatcher_;
  }

  // The split-result cache (nullptr when disabled).
  const std::shared_ptr<SplitResultCache>& split_result_cache() const {
    return split_result_cache_;
  }

  // The split-planning metadata cache (nullptr when disabled).
  const std::shared_ptr<MetadataCache>& metadata_cache() const {
    return metadata_cache_;
  }

 private:
  std::string id_;
  std::shared_ptr<metastore::Metastore> metastore_;
  ocs::OcsClient client_;
  ocs::PlanningClient planner_;  // GetSplits' only way to the frontend
  OcsConnectorConfig config_;
  std::shared_ptr<PushdownHistory> history_;
  // Internally synchronized; shared across connectors and worker threads.
  std::shared_ptr<SplitDispatcher> dispatcher_;
  // Internally synchronized; shared across concurrent CreatePageSource
  // calls on worker threads.
  std::shared_ptr<SplitResultCache> split_result_cache_;
  std::shared_ptr<MetadataCache> metadata_cache_;
};

}  // namespace pocs::connectors
