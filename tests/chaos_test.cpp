// The chaos matrix cell runner: `chaos_test --profile=<p> --seed=<n>`
// builds a fault-free reference testbed and a faulted one, runs the
// paper's workload queries on both, and asserts
//   1. every query under faults returns rows identical to the reference,
//   2. the profile's degradation signature shows up in QueryStats
//      (fallbacks where in-storage execution is taken away, retries on
//      transient faults), and
//   3. replaying the same profile + seed reproduces rows AND stats
//      bit-for-bit (the determinism contract chaos CI depends on).
// Registered in tests/CMakeLists.txt as one ctest entry per profile ×
// seed, labelled `chaos` (run locally with `ctest -L chaos`).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "workloads/chaos.h"
#include "workloads/concurrent.h"

namespace pocs::workloads {
namespace {

ChaosConfig g_chaos{.profile = "crash-storage", .seed = 1};

// Everything a replay must reproduce exactly.
struct QueryFingerprint {
  std::vector<std::string> rows;
  uint64_t bytes_from_storage = 0;
  uint64_t bytes_to_storage = 0;
  uint64_t rows_scanned = 0;
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
  uint64_t failed_splits = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_bytes_saved = 0;
  uint64_t bytes_refetched_on_retry = 0;
  uint64_t splits_planned = 0;
  uint64_t splits_pruned = 0;
  uint64_t metadata_cache_errors = 0;
  bool operator==(const QueryFingerprint&) const = default;
};

Result<std::unique_ptr<Testbed>> BuildBed(const ChaosConfig& chaos) {
  POCS_ASSIGN_OR_RETURN(TestbedConfig config, MakeChaosTestbedConfig(chaos));
  auto bed = std::make_unique<Testbed>(config);
  POCS_RETURN_NOT_OK(IngestChaosDatasets(bed.get()));
  POCS_RETURN_NOT_OK(ApplyChaos(bed.get(), chaos));
  return bed;
}

Result<std::map<std::string, QueryFingerprint>> RunAll(Testbed* bed) {
  std::map<std::string, QueryFingerprint> out;
  for (const auto& [name, sql] : ChaosQueries()) {
    POCS_ASSIGN_OR_RETURN(engine::QueryResult result, bed->Run(sql, "ocs"));
    out[name] = QueryFingerprint{CanonicalRows(*result.table),
                                 result.metrics.bytes_from_storage,
                                 result.metrics.bytes_to_storage,
                                 result.metrics.rows_scanned,
                                 result.metrics.retries,
                                 result.metrics.fallbacks,
                                 result.metrics.failed_splits,
                                 result.metrics.cache_hits,
                                 result.metrics.cache_bytes_saved,
                                 result.metrics.bytes_refetched_on_retry,
                                 result.metrics.splits_planned,
                                 result.metrics.splits_pruned,
                                 result.metrics.metadata_cache_errors};
  }
  return out;
}

TEST(ChaosMatrix, FaultedQueriesMatchReferenceWithExpectedSignature) {
  auto expectation = ChaosExpectationFor(g_chaos.profile);
  ASSERT_TRUE(expectation.ok()) << expectation.status();

  auto reference_bed =
      BuildBed(ChaosConfig{.profile = "none", .seed = g_chaos.seed});
  ASSERT_TRUE(reference_bed.ok()) << reference_bed.status();
  auto reference = RunAll(reference_bed->get());
  ASSERT_TRUE(reference.ok()) << reference.status();

  auto chaos_bed = BuildBed(g_chaos);
  ASSERT_TRUE(chaos_bed.ok()) << chaos_bed.status();
  auto faulted = RunAll(chaos_bed->get());
  ASSERT_TRUE(faulted.ok()) << faulted.status();

  for (const auto& [name, clean] : *reference) {
    const QueryFingerprint& dirty = (*faulted)[name];
    EXPECT_EQ(dirty.rows, clean.rows) << name << " rows diverged under "
                                      << g_chaos.profile;
    if (expectation->expect_fallbacks) {
      EXPECT_GT(dirty.fallbacks, 0u) << name;
      EXPECT_GT(dirty.failed_splits, 0u) << name;
    }
    if (expectation->expect_retries) {
      EXPECT_GT(dirty.retries, 0u) << name;
      EXPECT_EQ(dirty.fallbacks, 0u) << name << ": transient faults must "
                                     << "heal via retries, not fallbacks";
    }
    if (expectation->expect_cache_effects) {
      // A retried rpc re-sends the one chunked range it carried, so the
      // bytes fetched again on retry stay below the split's whole
      // transfer; no fetched range is kept across attempts.
      EXPECT_GT(dirty.bytes_refetched_on_retry, 0u) << name;
      EXPECT_LT(dirty.bytes_refetched_on_retry, dirty.bytes_from_storage)
          << name;
    }
    if (expectation->expect_stats_unavailable) {
      // Stats service down → planning degrades to the unpruned path:
      // every candidate split is planned, none pruned, and the exact
      // reference data movement is reproduced.
      EXPECT_EQ(dirty.splits_pruned, 0u) << name;
      EXPECT_EQ(dirty.splits_planned, clean.splits_planned) << name;
      EXPECT_EQ(dirty.bytes_from_storage, clean.bytes_from_storage) << name;
      EXPECT_EQ(dirty.fallbacks, 0u) << name << ": a stats outage must "
                                     << "never reach the data path";
    }
  }
  if (expectation->expect_stats_unavailable) {
    uint64_t total_errors = 0;
    for (const auto& [name, dirty] : *faulted) {
      total_errors += dirty.metadata_cache_errors;
    }
    EXPECT_GT(total_errors, 0u)
        << "stats-drop never exercised the metadata cache error path";
  }
  // The reference run itself must be fault-free.
  for (const auto& [name, clean] : *reference) {
    EXPECT_EQ(clean.fallbacks, 0u) << name;
    EXPECT_EQ(clean.failed_splits, 0u) << name;
    EXPECT_EQ(clean.retries, 0u) << name;
    EXPECT_EQ(clean.bytes_refetched_on_retry, 0u) << name;
  }
}

// For cache-enabled profiles: an identical repeat of a query on the
// faulted bed is answered from the split-result cache — bit-identical
// rows, a cache hit per split, and strictly fewer bytes moved.
TEST(ChaosMatrix, CachedRepeatScanServedFromCache) {
  auto expectation = ChaosExpectationFor(g_chaos.profile);
  ASSERT_TRUE(expectation.ok()) << expectation.status();
  if (!expectation->expect_cache_effects) {
    GTEST_SKIP() << "profile " << g_chaos.profile
                 << " does not enable connector caches";
  }

  auto bed = BuildBed(g_chaos);
  ASSERT_TRUE(bed.ok()) << bed.status();
  const std::string sql = ChaosQueries()[2].second;  // laghos

  auto cold = (*bed)->Run(sql, "ocs");
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = (*bed)->Run(sql, "ocs");
  ASSERT_TRUE(warm.ok()) << warm.status();

  EXPECT_EQ(CanonicalRows(*warm->table), CanonicalRows(*cold->table));
  EXPECT_GT(warm->metrics.cache_hits, 0u);
  EXPECT_GT(warm->metrics.cache_bytes_saved, 0u);
  EXPECT_LT(warm->metrics.bytes_from_storage,
            cold->metrics.bytes_from_storage);
}

TEST(ChaosMatrix, DeterministicReplay) {
  auto first_bed = BuildBed(g_chaos);
  ASSERT_TRUE(first_bed.ok()) << first_bed.status();
  auto first = RunAll(first_bed->get());
  ASSERT_TRUE(first.ok()) << first.status();

  auto second_bed = BuildBed(g_chaos);
  ASSERT_TRUE(second_bed.ok()) << second_bed.status();
  auto second = RunAll(second_bed->get());
  ASSERT_TRUE(second.ok()) << second.status();

  for (const auto& [name, fp] : *first) {
    const QueryFingerprint& replay = (*second)[name];
    EXPECT_EQ(replay.rows, fp.rows) << name;
    EXPECT_EQ(replay.bytes_from_storage, fp.bytes_from_storage) << name;
    EXPECT_EQ(replay.bytes_to_storage, fp.bytes_to_storage) << name;
    EXPECT_EQ(replay.rows_scanned, fp.rows_scanned) << name;
    EXPECT_EQ(replay.retries, fp.retries) << name;
    EXPECT_EQ(replay.fallbacks, fp.fallbacks) << name;
    EXPECT_EQ(replay.failed_splits, fp.failed_splits) << name;
    EXPECT_EQ(replay.cache_hits, fp.cache_hits) << name;
    EXPECT_EQ(replay.cache_bytes_saved, fp.cache_bytes_saved) << name;
    EXPECT_EQ(replay.bytes_refetched_on_retry, fp.bytes_refetched_on_retry)
        << name;
    EXPECT_EQ(replay.splits_planned, fp.splits_planned) << name;
    EXPECT_EQ(replay.splits_pruned, fp.splits_pruned) << name;
    EXPECT_EQ(replay.metadata_cache_errors, fp.metadata_cache_errors) << name;
  }
}

}  // namespace
}  // namespace pocs::workloads

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--profile=", 0) == 0) {
      pocs::workloads::g_chaos.profile = arg.substr(10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      pocs::workloads::g_chaos.seed = std::strtoull(arg.c_str() + 7,
                                                    nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
