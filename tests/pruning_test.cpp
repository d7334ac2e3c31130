// The `pruning` test tier (ctest -L pruning): end-to-end coverage of
// statistics-driven split pruning with the coordinator-side metadata
// cache (DESIGN.md §13).
//
// Contract under test:
//   * selective queries prune provably-empty splits at plan time and
//     never issue a data RPC for them (asserted via the
//     storage.plans_executed registry delta),
//   * surviving boundary splits carry a row-group hint the storage node
//     honours (row_groups_hint_skipped),
//   * results are bit-identical to the unpruned path — including after
//     object overwrites (stale cache → revalidation) and when the stats
//     RPC is down entirely (errors → plan everything unpruned),
//   * the cache's hit/miss/stale/error accounting is exact,
//   * planning cannot reach object data: the client it runs on has no
//     data call, which the compiler checks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>

#include "common/metrics.h"
#include "connectors/ocs/ocs_connector.h"
#include "workloads/concurrent.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs {
namespace {

using columnar::TypeKind;
using workloads::CanonicalRows;

// 6 files × 4096 rows, 4 row groups per file. With rows_per_vertex = 32
// each file covers 128 vertices ([f*128, (f+1)*128)) and each row group
// 32 of them — so a vertex_id bound lands on clean file and row-group
// boundaries, both statically visible in footer min/max stats.
workloads::LaghosConfig PartitionedLaghos(uint64_t seed = 20251116) {
  workloads::LaghosConfig config;
  config.num_files = 6;
  config.rows_per_file = 1 << 12;
  config.rows_per_group = 1 << 10;
  config.seed = seed;
  return config;
}

struct PruningBedFixture {
  PruningBedFixture() {
    bed = std::make_unique<workloads::Testbed>();
    auto dataset = workloads::GenerateLaghos(PartitionedLaghos());
    EXPECT_TRUE(dataset.ok()) << dataset.status();
    EXPECT_TRUE(bed->Ingest(std::move(*dataset)).ok());
    connectors::OcsConnectorConfig pruned = bed->config().ocs_connector;
    pruned.metadata_cache_bytes = 8ull << 20;
    bed->RegisterOcsCatalog("ocs_pruned", pruned);
  }
  std::unique_ptr<workloads::Testbed> bed;
};

uint64_t PlansExecuted() {
  return metrics::Registry::Default()
      .GetCounter("storage.plans_executed")
      .value();
}

// Two of six files can possibly hold vertex_id < 256; the other four are
// proven empty from cached stats and must never reach the data path.
// Whether `Client` declares a member of any of these names, of any
// signature or access: each of them then names two members of
// Probe<Client>, and taking its address is ill-formed.
struct DataCalls {
  int Get, GetVersioned, Select, ExecutePlan, FetchAndScan, channel;
};
template <typename Client>
struct Probe : Client, DataCalls {};

template <typename Client>
concept ReachesObjectData = !requires { &Probe<Client>::Get; } ||
                            !requires { &Probe<Client>::GetVersioned; } ||
                            !requires { &Probe<Client>::Select; } ||
                            !requires { &Probe<Client>::ExecutePlan; } ||
                            !requires { &Probe<Client>::FetchAndScan; } ||
                            !requires { &Probe<Client>::channel; };

// Split planning is metadata-only by type: the planning function and the
// metadata cache take a PlanningClient, which has no data call and no
// channel to build one from. The data clients show that the probe bites.
TEST(PlanningClientTest, PlanningCannotReachObjectData) {
  static_assert(!ReachesObjectData<ocs::PlanningClient>);
  static_assert(ReachesObjectData<ocs::OcsClient>);
  static_assert(ReachesObjectData<objectstore::StorageClient>);
  static_assert(
      std::is_same_v<decltype(&connectors::PlanSplits),
                     Result<connector::SplitPlan> (*)(
                         const ocs::PlanningClient&,
                         const connectors::MetadataCache*,
                         const rpc::CallOptions&, bool,
                         const connector::TableHandle&,
                         const connector::ScanSpec&)>);
  static_assert(
      std::is_same_v<decltype(&connectors::MetadataCache::GetDescriptor),
                     connectors::MetadataCache::FooterPtr (
                         connectors::MetadataCache::*)(
                         const ocs::PlanningClient&, const std::string&,
                         const std::string&,
                         connectors::MetadataCacheOutcomes*) const>);
}

TEST(SplitPruningTest, SelectiveQueryPrunesSplitsWithoutDataRpcs) {
  PruningBedFixture fx;
  const std::string sql =
      workloads::LaghosSelectiveQuery("laghos", /*max_vertex=*/256);

  auto reference = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->metrics.splits, 6u);
  EXPECT_EQ(reference->metrics.splits_pruned, 0u);

  const uint64_t plans_before = PlansExecuted();
  auto pruned = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(pruned.ok()) << pruned.status();

  EXPECT_EQ(pruned->metrics.splits_planned, 6u);
  EXPECT_EQ(pruned->metrics.splits_pruned, 4u);
  EXPECT_EQ(pruned->metrics.splits, 2u);
  // Cold cache: one miss per candidate object, nothing stale, no errors.
  EXPECT_EQ(pruned->metrics.metadata_cache_misses, 6u);
  EXPECT_EQ(pruned->metrics.metadata_cache_hits, 0u);
  EXPECT_EQ(pruned->metrics.metadata_cache_stale, 0u);
  EXPECT_EQ(pruned->metrics.metadata_cache_errors, 0u);
  // The zero-data-RPC guarantee: only the two surviving splits executed
  // a plan on a storage node.
  EXPECT_EQ(PlansExecuted() - plans_before, pruned->metrics.splits);
  // Pruning must be invisible in the answer.
  EXPECT_EQ(CanonicalRows(*pruned->table), CanonicalRows(*reference->table));

  // Warm cache: every cached footer revalidates via a metadata-only Stat.
  auto warm = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->metrics.metadata_cache_hits, 6u);
  EXPECT_EQ(warm->metrics.metadata_cache_misses, 0u);
  EXPECT_EQ(warm->metrics.splits_pruned, 4u);
  EXPECT_EQ(CanonicalRows(*warm->table), CanonicalRows(*reference->table));
}

// A bound inside the first file: the surviving split carries a
// row-group hint, and the storage node skips the hinted-out groups
// before touching their stats.
TEST(SplitPruningTest, BoundarySplitCarriesRowGroupHint) {
  PruningBedFixture fx;
  // File 0's row groups cover vertices [0,32), [32,64), [64,96),
  // [96,128): only the first can match, the other three are hinted out.
  const std::string sql =
      workloads::LaghosSelectiveQuery("laghos", /*max_vertex=*/32);

  auto reference = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();

  auto pruned = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(pruned->metrics.splits_pruned, 5u);
  EXPECT_EQ(pruned->metrics.splits, 1u);
  EXPECT_EQ(pruned->metrics.row_groups_hint_skipped, 3u);
  EXPECT_EQ(CanonicalRows(*pruned->table), CanonicalRows(*reference->table));
}

// Overwriting an object after its stats were cached must surface as a
// stale entry + refetch, and the answer must match a cold-cache run
// over the new data bit-for-bit. Staleness may cost a round trip,
// never correctness.
TEST(SplitPruningTest, OverwriteInvalidatesCachedStats) {
  PruningBedFixture fx;
  const std::string sql =
      workloads::LaghosSelectiveQuery("laghos", /*max_vertex=*/256);

  auto cold = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->metrics.metadata_cache_misses, 6u);

  // Overwrite every object with differently-seeded data (same schema,
  // same keys, same vertex partitioning) through the regular PUT path.
  auto changed = workloads::GenerateLaghos(PartitionedLaghos(/*seed=*/42));
  ASSERT_TRUE(changed.ok()) << changed.status();
  for (auto& [key, bytes] : changed->files) {
    ASSERT_TRUE(
        fx.bed->cluster().PutObject(changed->info.bucket, key, std::move(bytes))
            .ok());
  }

  auto after = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(after.ok()) << after.status();
  // Every cached footer failed version validation and was refetched.
  EXPECT_EQ(after->metrics.metadata_cache_stale, 6u);
  EXPECT_EQ(after->metrics.metadata_cache_hits, 0u);
  EXPECT_EQ(after->metrics.splits_pruned, 4u);
  // Bit-identical to the unpruned catalog over the new data.
  auto reference = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(CanonicalRows(*after->table), CanonicalRows(*reference->table));
}

// Stats service down: planning degrades to the unpruned path — every
// candidate is planned, the error is counted, and the answer is
// untouched. Healing the service restores pruning on the next query.
TEST(SplitPruningTest, StatsRpcDownFallsBackToUnprunedPlanning) {
  PruningBedFixture fx;
  const std::string sql =
      workloads::LaghosSelectiveQuery("laghos", /*max_vertex=*/256);

  auto reference = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();

  fx.bed->cluster().SetDescribeCrashed(true);
  auto degraded = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->metrics.metadata_cache_errors, 6u);
  EXPECT_EQ(degraded->metrics.splits_pruned, 0u);
  EXPECT_EQ(degraded->metrics.splits, 6u);
  EXPECT_EQ(CanonicalRows(*degraded->table), CanonicalRows(*reference->table));

  fx.bed->cluster().SetDescribeCrashed(false);
  auto healed = fx.bed->Run(sql, "ocs_pruned");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->metrics.splits_pruned, 4u);
  EXPECT_EQ(healed->metrics.metadata_cache_errors, 0u);
  EXPECT_EQ(CanonicalRows(*healed->table), CanonicalRows(*reference->table));
}

// The monotone-orderkey TPC-H shape: an orderkey prefix predicate prunes
// trailing lineitem files from footer stats alone.
TEST(SplitPruningTest, TpchOrderkeyPrefixPrunesTrailingFiles) {
  workloads::Testbed bed;
  workloads::TpchConfig tpch;
  tpch.num_files = 3;
  tpch.rows_per_file = 1 << 12;
  tpch.rows_per_group = 1 << 10;
  auto dataset = workloads::GenerateLineitem(tpch);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  ASSERT_TRUE(bed.Ingest(std::move(*dataset)).ok());
  connectors::OcsConnectorConfig pruned = bed.config().ocs_connector;
  pruned.metadata_cache_bytes = 8ull << 20;
  bed.RegisterOcsCatalog("ocs_pruned", pruned);

  // orderkey is monotone across files: a prefix bound well inside file 0
  // proves the later files empty.
  const std::string sql =
      workloads::TpchSelectiveQuery("lineitem", /*max_orderkey=*/200);
  auto reference = bed.Run(sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();

  auto fast = bed.Run(sql, "ocs_pruned");
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_EQ(fast->metrics.splits_planned, 3u);
  EXPECT_GT(fast->metrics.splits_pruned, 0u);
  EXPECT_EQ(CanonicalRows(*fast->table), CanonicalRows(*reference->table));
}

}  // namespace
}  // namespace pocs
