// Tests for the multi-level caching layer (DESIGN.md §10): the sharded
// byte-budgeted LRU primitive (including concurrent use — run under TSan
// in CI), the storage node's decoded row-group cache (hit/miss/byte
// accounting, PUT-overwrite invalidation, the lazy-column fast path), and
// the connector's split-result cache (repeat scans served without a data
// RPC, version validation against overwrites).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lru_cache.h"
#include "format/parquet_lite.h"
#include "ocs/client.h"
#include "ocs/storage_node.h"
#include "workloads/concurrent.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"

namespace pocs {
namespace {

using columnar::Datum;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::TypeKind;
using ocs::OcsClient;
using ocs::StorageNode;
using ocs::StorageNodeConfig;
using substrait::Expression;
using substrait::Plan;
using substrait::Rel;
using substrait::RelKind;
using substrait::ScalarFunc;
using workloads::CanonicalRows;

// ---- LRU primitive --------------------------------------------------------

using StringCache = ShardedLruCache<std::string, std::string>;

LruCacheConfig Cfg(uint64_t byte_budget, size_t shards) {
  LruCacheConfig config;
  config.byte_budget = byte_budget;
  config.shards = shards;
  return config;
}

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruCacheTest, HitMissAndLruEviction) {
  // One shard so eviction order is the plain LRU order.
  StringCache cache(Cfg(100, 1));
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup("a"), nullptr);

  cache.Insert("a", Val("va"), 40);
  cache.Insert("b", Val("vb"), 40);
  ASSERT_NE(cache.Lookup("a"), nullptr);  // "a" becomes MRU
  cache.Insert("c", Val("vc"), 40);       // evicts "b", the LRU entry

  EXPECT_EQ(cache.Lookup("b"), nullptr);
  ASSERT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*cache.Lookup("a"), "va");
  ASSERT_NE(cache.Lookup("c"), nullptr);

  auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
}

TEST(LruCacheTest, ContainsTouchesNeitherOrderNorCounts) {
  StringCache cache(Cfg(100, 1));
  cache.Insert("a", Val("va"), 40);
  cache.Insert("b", Val("vb"), 40);
  const auto before = cache.stats();
  // "a" is the LRU entry; a peek must leave it so.
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
  EXPECT_FALSE(cache.Contains("z"));
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);

  cache.Insert("c", Val("vc"), 40);  // evicts "a", still the LRU entry
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST(LruCacheTest, OversizedEntryNotAdmitted) {
  StringCache cache(Cfg(100, 1));
  cache.Insert("big", Val("x"), 101);
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(LruCacheTest, ZeroBudgetDisablesEverything) {
  StringCache cache(Cfg(0, 1));
  EXPECT_FALSE(cache.enabled());
  cache.Insert("a", Val("va"), 1);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(LruCacheTest, ReplaceRechargesBytes) {
  StringCache cache(Cfg(100, 1));
  cache.Insert("a", Val("v1"), 30);
  cache.Insert("a", Val("v2"), 50);
  EXPECT_EQ(cache.stats().bytes, 50u);
  EXPECT_EQ(cache.stats().entries, 1u);
  ASSERT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*cache.Lookup("a"), "v2");
}

TEST(LruCacheTest, EraseAndClear) {
  StringCache cache(Cfg(100, 2));
  cache.Insert("a", Val("va"), 10);
  cache.Insert("b", Val("vb"), 10);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(LruCacheTest, ConcurrentHitMissInsert) {
  // Hammer a small keyspace from many threads; TSan (CI) checks the
  // locking, the final stats check the counters' consistency.
  ShardedLruCache<uint64_t, uint64_t> cache(Cfg(1 << 16, 4));
  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 4000;
  constexpr uint64_t kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = (i * 31 + static_cast<uint64_t>(t)) % kKeys;
        if (auto hit = cache.Lookup(key)) {
          EXPECT_EQ(*hit, key);  // value integrity under concurrency
        } else {
          cache.Insert(key, std::make_shared<const uint64_t>(key), 64);
        }
        if (i % 97 == 0) cache.Erase(key);
      }
    });
  }
  for (auto& th : threads) th.join();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_LE(stats.bytes, uint64_t{1} << 16);
}

// ---- storage-node row-group cache ----------------------------------------

columnar::SchemaPtr SimSchema() {
  return MakeSchema({{"vertex_id", TypeKind::kInt64},
                     {"x", TypeKind::kFloat64},
                     {"e", TypeKind::kFloat64}});
}

// 1000 rows in 10 row groups: vertex_id = i, x = i * 0.01, e = f(i).
Bytes SimFile(double e_scale = 1.0) {
  format::WriterOptions options;
  options.rows_per_group = 100;
  format::FileWriter writer(SimSchema(), options);
  auto id = MakeColumn(TypeKind::kInt64);
  auto x = MakeColumn(TypeKind::kFloat64);
  auto e = MakeColumn(TypeKind::kFloat64);
  for (int i = 0; i < 1000; ++i) {
    id->AppendInt64(i);
    x->AppendFloat64(i * 0.01);
    e->AppendFloat64((1000.0 - i) * e_scale);
  }
  auto batch = MakeBatch(SimSchema(), {id, x, e});
  EXPECT_TRUE(writer.WriteBatch(*batch).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  return *file;
}

std::unique_ptr<Rel> ReadSim() {
  auto read = std::make_unique<Rel>();
  read->kind = RelKind::kRead;
  read->bucket = "sim";
  read->object = "f0";
  read->base_schema = SimSchema();
  return read;
}

Expression XBetween(double lo, double hi) {
  auto ge = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(lo))},
      TypeKind::kBool);
  auto le = Expression::Call(
      ScalarFunc::kLe,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(hi))},
      TypeKind::kBool);
  return Expression::Call(ScalarFunc::kAnd, {ge, le}, TypeKind::kBool);
}

Plan FilterPlan(double lo, double hi) {
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = XBetween(lo, hi);
  plan.root = std::move(filter);
  return plan;
}

struct NodeFixture {
  explicit NodeFixture(uint64_t cache_bytes = 64ull << 20) {
    store = std::make_shared<objectstore::ObjectStore>();
    EXPECT_TRUE(store->CreateBucket("sim").ok());
    EXPECT_TRUE(store->Put("sim", "f0", SimFile()).ok());
    StorageNodeConfig config;
    config.cpu_slowdown = 1.0;
    config.rowgroup_cache_bytes = cache_bytes;
    node = std::make_unique<StorageNode>(store, config);
  }
  std::shared_ptr<objectstore::ObjectStore> store;
  std::unique_ptr<StorageNode> node;
};

TEST(RowGroupCacheTest, RepeatScanServedFromCache) {
  NodeFixture fx;
  Plan plan = FilterPlan(2.0, 3.0);

  auto cold = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->stats.cache_hits, 0u);
  EXPECT_GT(cold->stats.cache_misses, 0u);
  EXPECT_GT(cold->stats.object_bytes_read, 0u);

  auto warm = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(warm->stats.cache_hits, 0u);
  EXPECT_EQ(warm->stats.cache_misses, 0u);
  // Every media byte of the cold run is avoided on the warm run.
  EXPECT_EQ(warm->stats.object_bytes_read, 0u);
  EXPECT_EQ(warm->stats.cache_bytes_saved, cold->stats.object_bytes_read);
  EXPECT_EQ(warm->stats.media_read_seconds, 0.0);

  // Bit-identical result.
  EXPECT_EQ(warm->arrow_ipc, cold->arrow_ipc);
}

TEST(RowGroupCacheTest, PutOverwriteInvalidates) {
  NodeFixture fx;
  Plan plan = FilterPlan(2.0, 3.0);

  auto before = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(before.ok()) << before.status();
  const uint64_t version_before = before->stats.object_version;

  // Overwrite with different data: the version bumps, so the stale
  // decoded chunks must never be served.
  ASSERT_TRUE(fx.store->Put("sim", "f0", SimFile(/*e_scale=*/2.0)).ok());

  auto after = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(after->stats.object_version, version_before);
  EXPECT_EQ(after->stats.cache_hits, 0u);
  EXPECT_NE(after->arrow_ipc, before->arrow_ipc);

  // The new version matches a fresh, cache-free execution bit-for-bit.
  auto store2 = std::make_shared<objectstore::ObjectStore>();
  ASSERT_TRUE(store2->CreateBucket("sim").ok());
  ASSERT_TRUE(store2->Put("sim", "f0", SimFile(/*e_scale=*/2.0)).ok());
  StorageNodeConfig no_cache;
  no_cache.cpu_slowdown = 1.0;
  no_cache.rowgroup_cache_bytes = 0;
  StorageNode reference(store2, no_cache);
  auto expected = reference.ExecutePlan(plan);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(after->arrow_ipc, expected->arrow_ipc);
}

TEST(RowGroupCacheTest, TinyBudgetNeverAdmitsButStaysCorrect) {
  NodeFixture fx(/*cache_bytes=*/64);  // smaller than any decoded chunk
  Plan plan = FilterPlan(2.0, 3.0);
  auto cold = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->stats.cache_hits, 0u);
  EXPECT_EQ(warm->arrow_ipc, cold->arrow_ipc);
  EXPECT_EQ(fx.node->rowgroup_cache()->stats().entries, 0u);
}

TEST(RowGroupCacheTest, LazyColumnFastPathSkipsValueFreeGroups) {
  NodeFixture fx;
  // x == 0.005 falls inside group 0's [0, 0.99] min/max, so statistics
  // cannot prune it — but no row has that value, so the lazy path drops
  // the group after decoding only the predicate column.
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = Expression::Call(
      ScalarFunc::kEq,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(0.005))},
      TypeKind::kBool);
  plan.root = std::move(filter);

  auto result = fx.node->ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.row_groups_total, 10u);
  EXPECT_EQ(result->stats.row_groups_skipped, 9u);       // stats pruning
  EXPECT_EQ(result->stats.row_groups_lazy_skipped, 1u);  // value pruning
  EXPECT_EQ(result->stats.rows_output, 0u);
  EXPECT_EQ(result->stats.rows_scanned, 0u);
}

// ---- connector split-result cache ----------------------------------------

workloads::LaghosConfig SmallLaghos(uint64_t seed = 20251116) {
  workloads::LaghosConfig config;
  config.num_files = 3;
  config.rows_per_file = 1 << 11;
  config.rows_per_group = 1 << 9;
  config.seed = seed;
  return config;
}

struct CachedBedFixture {
  CachedBedFixture() {
    bed = std::make_unique<workloads::Testbed>();
    auto dataset = workloads::GenerateLaghos(SmallLaghos());
    EXPECT_TRUE(dataset.ok()) << dataset.status();
    EXPECT_TRUE(bed->Ingest(std::move(*dataset)).ok());
    connectors::OcsConnectorConfig cached = bed->config().ocs_connector;
    cached.split_result_cache_bytes = 64ull << 20;
    bed->RegisterOcsCatalog("ocs_cached", cached);
  }
  std::unique_ptr<workloads::Testbed> bed;
  std::string sql = workloads::LaghosQuery("laghos");
};

TEST(SplitResultCacheTest, RepeatScanServedWithoutDataRpc) {
  CachedBedFixture fx;
  auto cold = fx.bed->Run(fx.sql, "ocs_cached");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->metrics.cache_hits, 0u);

  auto warm = fx.bed->Run(fx.sql, "ocs_cached");
  ASSERT_TRUE(warm.ok()) << warm.status();
  // Every split is a hit: only metadata-only Stat probes cross the wire.
  EXPECT_EQ(warm->metrics.cache_hits, warm->metrics.splits);
  EXPECT_GT(warm->metrics.cache_bytes_saved, 0u);
  EXPECT_LT(warm->metrics.bytes_from_storage, cold->metrics.bytes_from_storage);
  EXPECT_EQ(CanonicalRows(*warm->table), CanonicalRows(*cold->table));
}

TEST(SplitResultCacheTest, PutOverwriteNeverServesStaleResult) {
  CachedBedFixture fx;
  auto cold = fx.bed->Run(fx.sql, "ocs_cached");
  ASSERT_TRUE(cold.ok()) << cold.status();

  // Overwrite every laghos object with differently-seeded data (same
  // schema, same keys) through the regular PUT path.
  auto changed = workloads::GenerateLaghos(SmallLaghos(/*seed=*/42));
  ASSERT_TRUE(changed.ok()) << changed.status();
  for (auto& [key, bytes] : changed->files) {
    ASSERT_TRUE(
        fx.bed->cluster().PutObject(changed->info.bucket, key, std::move(bytes))
            .ok());
  }

  auto after = fx.bed->Run(fx.sql, "ocs_cached");
  ASSERT_TRUE(after.ok()) << after.status();
  // The stale cached results failed version validation: no hits, and the
  // answer matches the uncached catalog over the new data bit-for-bit.
  EXPECT_EQ(after->metrics.cache_hits, 0u);
  EXPECT_NE(CanonicalRows(*after->table), CanonicalRows(*cold->table));
  auto reference = fx.bed->Run(fx.sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(CanonicalRows(*after->table), CanonicalRows(*reference->table));
}

}  // namespace
}  // namespace pocs
