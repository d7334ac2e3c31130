// A reusable, byte-budgeted, sharded LRU cache — the primitive behind
// the storage-side decoded row-group cache and the connector-side
// split-result cache (DESIGN.md §10).
//
// Design:
//   - N shards, each an independent (mutex, LRU list, hash index) triple;
//     a lookup/insert touches exactly one shard mutex, so concurrent
//     readers on different keys rarely contend. TSan-clean: all shared
//     state is either shard-mutex-protected or a relaxed atomic counter.
//   - Byte budget, not entry count: every Insert declares a charge (the
//     decoded payload size) and each shard evicts from its LRU tail until
//     its slice of the budget (budget / shards) fits. An entry larger
//     than a whole shard slice is not cached at all — admitting it would
//     just evict everything else and then itself on the next insert.
//   - Values are shared_ptr<const V>: a Lookup pins the entry, so
//     eviction never invalidates data a reader already holds.
//   - Metrics: when constructed with a metric prefix, hits / misses /
//     evictions / inserts are mirrored into the process registry as
//     `<prefix>.hit` etc. (several cache instances with the same prefix
//     sum naturally). Per-instance totals, resident bytes included, are
//     kept in relaxed atomics for deterministic tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"

namespace pocs {

struct LruCacheConfig {
  uint64_t byte_budget = 0;     // 0 disables the cache entirely
  size_t shards = 8;
  std::string metric_prefix{};  // empty = no registry mirroring
};

template <typename Key, typename Value, typename KeyHash = std::hash<Key>>
class ShardedLruCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
    uint64_t bytes = 0;
    uint64_t entries = 0;
  };

  explicit ShardedLruCache(LruCacheConfig config) : config_(config) {
    if (config_.shards == 0) config_.shards = 1;
    shards_ = std::vector<Shard>(config_.shards);
    shard_budget_ = config_.byte_budget / config_.shards;
    if (!config_.metric_prefix.empty()) {
      auto& reg = metrics::Registry::Default();
      hit_metric_ = &reg.GetCounter(config_.metric_prefix + ".hit");
      miss_metric_ = &reg.GetCounter(config_.metric_prefix + ".miss");
      eviction_metric_ = &reg.GetCounter(config_.metric_prefix + ".eviction");
      insert_metric_ = &reg.GetCounter(config_.metric_prefix + ".insert");
    }
  }

  ~ShardedLruCache() { Clear(); }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  bool enabled() const { return config_.byte_budget > 0; }
  uint64_t byte_budget() const { return config_.byte_budget; }

  // Returns the cached value (moving the entry to the shard's MRU
  // position) or nullptr on miss.
  ValuePtr Lookup(const Key& key) {
    if (!enabled()) return nullptr;
    Shard& shard = ShardFor(key);
    ValuePtr value;
    {
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        value = it->second->value;
      }
    }
    // Stats/registry updates happen outside the shard lock (the same
    // deferral Insert always did): nothing external runs under a shard
    // mutex, so the shards stay leaf-level locks.
    if (!value) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (miss_metric_) miss_metric_->Increment();
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_metric_) hit_metric_->Increment();
    return value;
  }

  // Whether `key` is cached, without touching it: the entry keeps its LRU
  // position and neither a hit nor a miss is counted.
  bool Contains(const Key& key) {
    if (!enabled()) return false;
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    return shard.index.count(key) != 0;
  }

  // Inserts (or replaces) `key`, charging `charge` bytes against the
  // shard's budget slice and evicting LRU entries to make room. Oversized
  // entries (charge > budget/shards) are not admitted.
  void Insert(const Key& key, ValuePtr value, uint64_t charge) {
    if (!enabled() || charge > shard_budget_) return;
    Shard& shard = ShardFor(key);
    uint64_t evicted = 0;
    int64_t byte_delta = 0;
    {
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        byte_delta -= static_cast<int64_t>(it->second->charge);
        shard.bytes -= it->second->charge;
        shard.lru.erase(it->second);
        shard.index.erase(it);
        entries_.fetch_sub(1, std::memory_order_relaxed);
      }
      while (shard.bytes + charge > shard_budget_ && !shard.lru.empty()) {
        const Entry& tail = shard.lru.back();
        byte_delta -= static_cast<int64_t>(tail.charge);
        shard.bytes -= tail.charge;
        shard.index.erase(tail.key);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.push_front(Entry{key, std::move(value), charge});
      shard.index[key] = shard.lru.begin();
      shard.bytes += charge;
      byte_delta += static_cast<int64_t>(charge);
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    entries_.fetch_sub(evicted, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<uint64_t>(byte_delta),
                     std::memory_order_relaxed);
    if (insert_metric_) insert_metric_->Increment();
    if (eviction_metric_ && evicted) eviction_metric_->Add(evicted);
  }

  // Removes `key` if present; returns whether anything was erased.
  bool Erase(const Key& key) {
    if (!enabled()) return false;
    Shard& shard = ShardFor(key);
    uint64_t charge = 0;
    {
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it == shard.index.end()) return false;
      charge = it->second->charge;
      shard.bytes -= charge;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(charge, std::memory_order_relaxed);
    return true;
  }

  void Clear() {
    uint64_t dropped_bytes = 0;
    uint64_t dropped_entries = 0;
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      dropped_bytes += shard.bytes;
      dropped_entries += shard.lru.size();
      shard.bytes = 0;
      shard.lru.clear();
      shard.index.clear();
    }
    entries_.fetch_sub(dropped_entries, std::memory_order_relaxed);
    bytes_.fetch_sub(dropped_bytes, std::memory_order_relaxed);
  }

  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.bytes = bytes_.load(std::memory_order_relaxed);
    s.entries = entries_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    Key key;
    ValuePtr value;
    uint64_t charge = 0;
  };
  struct Shard {
    Mutex mu;
    // front = most recently used
    std::list<Entry> lru POCS_GUARDED_BY(mu);
    std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash>
        index POCS_GUARDED_BY(mu);
    uint64_t bytes POCS_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Key& key) {
    // Re-mix: unordered_map-quality hashes may have weak low bits.
    return shards_[Mix64(KeyHash{}(key)) % shards_.size()];
  }

  LruCacheConfig config_;
  uint64_t shard_budget_ = 0;
  std::vector<Shard> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> entries_{0};

  metrics::Counter* hit_metric_ = nullptr;
  metrics::Counter* miss_metric_ = nullptr;
  metrics::Counter* eviction_metric_ = nullptr;
  metrics::Counter* insert_metric_ = nullptr;
};

}  // namespace pocs
