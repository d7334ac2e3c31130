#include "connectors/ocs/metadata_cache.h"

namespace pocs::connectors {

MetadataCache::MetadataCache(uint64_t byte_budget)
    : cache_(std::make_unique<Cache>(
          LruCacheConfig{.byte_budget = byte_budget, .shards = 8})) {}

MetadataCache::FooterPtr MetadataCache::GetDescriptor(
    const ocs::PlanningClient& client, const std::string& bucket,
    const std::string& key, MetadataCacheOutcomes* outcomes) const {
  const std::string cache_key = bucket + "/" + key;
  bool was_cached = false;
  if (FooterPtr cached = cache_->Lookup(cache_key)) {
    was_cached = true;
    // Revalidate with a metadata-only Stat (same idiom as the
    // split-result cache, DESIGN.md §10): serve only on version match.
    auto stat = client.Stat(bucket, key);
    if (stat.ok() && stat->version == cached->version) {
      ++outcomes->hits;
      return cached;
    }
    if (!stat.ok()) {
      // Freshness unknowable — treat like any other stats-path failure
      // so the caller degrades to an unpruned split.
      ++outcomes->errors;
      return nullptr;
    }
    // Version moved on: drop the stale entry and refetch below.
    cache_->Erase(cache_key);
    ++outcomes->stale;
  }
  objectstore::TransferInfo info;
  auto footer = client.DescribeObject(bucket, key, &info);
  if (!footer.ok()) {
    ++outcomes->errors;
    return nullptr;
  }
  if (!was_cached) {
    ++outcomes->misses;
  }
  auto value = std::make_shared<const ocs::ObjectFooter>(std::move(*footer));
  // Charged the bytes its footer took on the wire.
  cache_->Insert(cache_key, value, info.bytes_received);
  return value;
}

}  // namespace pocs::connectors
