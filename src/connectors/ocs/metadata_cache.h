// Coordinator-side metadata cache: each object's own footer (schema,
// chunk table and file- and row-group-level min/max/NDV, from
// DescribeObject) behind a byte-budgeted LRU, revalidated against the
// object's current version with a metadata-only Stat before every use
// (DESIGN.md §13).
//
// Outcome semantics are validated-freshness, not raw LRU residency —
// which is why the underlying ShardedLruCache runs without a
// metric_prefix. The outcomes ride on connector::SplitPlan into the
// query's metadata_cache_* counters (folded into the registry as
// engine.metadata_cache_*):
//   hit    cached footer whose version still matches the object
//   miss   not cached; fetched via the stats RPC
//   stale  cached but the object moved on (overwrite); refetched
//   error  stats path (Stat or DescribeObject) failed; caller must
//          degrade to planning the split unpruned — never to an error
#pragma once

#include <memory>
#include <string>

#include "common/hash.h"
#include "common/lru_cache.h"
#include "ocs/client.h"

namespace pocs::connectors {

struct MetadataCacheKeyHash {
  size_t operator()(const std::string& k) const {
    return static_cast<size_t>(HashString(k));
  }
};

// Per-planning-pass outcome counts (folded into connector::SplitPlan).
struct MetadataCacheOutcomes {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale = 0;
  uint64_t errors = 0;
};

class MetadataCache {
 public:
  using FooterPtr = std::shared_ptr<const ocs::ObjectFooter>;

  explicit MetadataCache(uint64_t byte_budget);

  // Returns a version-validated footer for bucket/key, consulting the
  // cache first and the DescribeObject RPC on miss/staleness. Returns
  // nullptr when the stats path fails (outcomes->errors is bumped) —
  // the caller plans the split unpruned. Thread-safe.
  FooterPtr GetDescriptor(const ocs::PlanningClient& client,
                          const std::string& bucket, const std::string& key,
                          MetadataCacheOutcomes* outcomes) const;

 private:
  using Cache =
      ShardedLruCache<std::string, ocs::ObjectFooter, MetadataCacheKeyHash>;

  // Internally synchronized (sharded pocs::Mutex).
  std::unique_ptr<Cache> cache_;
};

}  // namespace pocs::connectors
