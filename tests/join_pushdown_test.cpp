// The `pushdown` test tier (ctest -L pushdown): end-to-end coverage of the
// two-phase aggregation split and the join-key bloom semi-join reduction
// (DESIGN.md §14).
//
// Contract under test:
//   * the storage-side partial phase + engine-side final merge produce
//     rows bit-identical to the single-phase engine plan — including
//     AVG (sum/count recombination) and empty group sets,
//   * a pushed bloom moves strictly fewer bytes than the same join
//     without it, at identical answers,
//   * bloom false positives are filtered by the engine's exact probe, so
//     an undersized bloom costs bytes, never rows,
//   * a bloom pinned to a stale object version is skipped wholesale by
//     storage (no false pruning against rewritten data),
//   * a dead in-storage executor degrades to the engine-side fallback
//     with identical rows,
//   * the other join shapes — no aggregate, a conjunct over both tables,
//     a dim-side aggregate argument, a fact-side OR — agree across the
//     pushed, engine-only and no-pushdown paths,
//   * the whole pipeline is a pure function of config + seed (replay).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "connector/spi.h"
#include "workloads/concurrent.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs {
namespace {

using columnar::TypeKind;
using workloads::CanonicalRows;

workloads::TpchConfig SmallLineitem() {
  workloads::TpchConfig tpch;
  tpch.num_files = 3;
  tpch.rows_per_file = 1 << 12;
  tpch.rows_per_group = 1 << 10;
  return tpch;
}

Status IngestJoinTables(workloads::Testbed* bed) {
  POCS_ASSIGN_OR_RETURN(workloads::GeneratedDataset fact,
                        workloads::GenerateLineitem(SmallLineitem()));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(fact)));
  POCS_ASSIGN_OR_RETURN(workloads::GeneratedDataset dim,
                        workloads::GenerateSupplier(workloads::SupplierConfig{}));
  return bed->Ingest(std::move(dim));
}

// One bed, three ways to run the same join: "ocs" takes the bloom and the
// storage-side partial phase, "ocs_engine" is the same connector with both
// disabled (single-phase engine join over full scans), "hive_raw" is the
// no-pushdown-at-all reference path.
struct JoinBedFixture {
  explicit JoinBedFixture(workloads::TestbedConfig config = {}) {
    bed = std::make_unique<workloads::Testbed>(std::move(config));
    EXPECT_TRUE(IngestJoinTables(bed.get()).ok());
    connectors::OcsConnectorConfig engine_only = bed->config().ocs_connector;
    engine_only.pushdown_aggregation = false;
    engine_only.pushdown_join_bloom = false;
    bed->RegisterOcsCatalog("ocs_engine", engine_only);
  }
  std::unique_ptr<workloads::Testbed> bed;
};

TEST(JoinPushdownTest, PartialAggMergeMatchesSinglePhaseReference) {
  JoinBedFixture fx;
  const std::string sql = workloads::TpchJoinQuery("lineitem", "supplier");

  auto reference = fx.bed->Run(sql, "ocs_engine");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->metrics.partial_agg_accepted, 0u);
  EXPECT_EQ(reference->metrics.bloom_pushed, 0u);
  // The dimension filter keeps nations 0..4 → exactly 5 groups.
  EXPECT_EQ(reference->table->num_rows(), 5u);

  auto pushed = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_GE(pushed->metrics.partial_agg_accepted, 1u);
  EXPECT_EQ(pushed->metrics.partial_agg_rejected, 0u);
  EXPECT_GE(pushed->metrics.bloom_pushed, 1u);
  EXPECT_GT(pushed->metrics.bloom_rows_pruned, 0u);
  EXPECT_GT(pushed->metrics.partial_agg_merges, 0u);
  EXPECT_EQ(pushed->metrics.fallbacks, 0u);

  // Two-phase AVG/SUM/COUNT recombination must be bit-identical to the
  // single-phase plan (same doubles, same order after canonicalization).
  EXPECT_EQ(CanonicalRows(*pushed->table), CanonicalRows(*reference->table));

  // And the whole point: the pushed plan moves strictly fewer bytes.
  EXPECT_LT(pushed->metrics.bytes_from_storage,
            reference->metrics.bytes_from_storage);

  // The no-pushdown Hive path agrees too (engine join over raw GETs).
  auto raw = fx.bed->Run(sql, "hive_raw");
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(CanonicalRows(*raw->table), CanonicalRows(*reference->table));
}

// An empty build side is the degenerate case of both features: the bloom
// contains no keys (storage prunes every row) and the final merge sees no
// groups. The answer is zero rows, not an error, on every path.
TEST(JoinPushdownTest, EmptyBuildSideYieldsEmptyGroups) {
  JoinBedFixture fx;
  const std::string sql =
      workloads::TpchJoinQuery("lineitem", "supplier", /*nations=*/0);

  auto reference = fx.bed->Run(sql, "ocs_engine");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->table->num_rows(), 0u);

  auto pushed = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_EQ(pushed->table->num_rows(), 0u);
  EXPECT_EQ(CanonicalRows(*pushed->table), CanonicalRows(*reference->table));
}

// Starve the bloom to ~1 bit per key: most non-matching fact rows become
// false positives and cross the network, but the engine's exact hash
// probe drops them — the undersized filter costs bytes, never rows.
TEST(JoinPushdownTest, BloomFalsePositivesFilteredEngineSide) {
  workloads::TestbedConfig config;
  config.engine.join_bloom_bits_per_key = 1.0;
  JoinBedFixture fx(std::move(config));
  const std::string sql = workloads::TpchJoinQuery("lineitem", "supplier");

  auto reference = fx.bed->Run(sql, "ocs_engine");
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto pushed = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(pushed.ok()) << pushed.status();

  EXPECT_GE(pushed->metrics.bloom_pushed, 1u);
  EXPECT_EQ(CanonicalRows(*pushed->table), CanonicalRows(*reference->table));

  // A well-sized bloom on a fresh but otherwise identical bed prunes
  // strictly more rows than the starved one.
  JoinBedFixture sized;
  auto good = sized.bed->Run(sql, "ocs");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_GT(good->metrics.bloom_rows_pruned,
            pushed->metrics.bloom_rows_pruned);
  EXPECT_EQ(CanonicalRows(*good->table), CanonicalRows(*reference->table));
}

// Version-pin discipline at the SPI level: a split whose bloom_version no
// longer matches the (rewritten) object must have its bloom ignored by
// storage — pruning against data the filter was never built for would
// drop arbitrary rows.
TEST(JoinPushdownTest, StaleVersionBloomSkippedByStorage) {
  workloads::Testbed bed;
  workloads::TpchConfig tpch = SmallLineitem();
  tpch.num_files = 1;
  auto dataset = workloads::GenerateLineitem(tpch);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  ASSERT_TRUE(bed.Ingest(std::move(*dataset)).ok());

  connector::Connector* conn = bed.engine().GetConnector("ocs");
  ASSERT_NE(conn, nullptr);
  auto table = conn->GetTableHandle("default", "lineitem");
  ASSERT_TRUE(table.ok()) << table.status();

  connector::ScanSpec spec;
  spec.output_schema = table->info.schema;
  connector::PushedOperator op;
  op.kind = connector::PushedOperator::Kind::kJoinKeyBloom;
  op.bloom_column = 2;  // suppkey
  op.bloom_key_count = 1;
  BloomFilter bloom(/*num_bits=*/64, /*num_hashes=*/3,
                    /*seed=*/0x706f63736a6f696eULL);
  bloom.Add(1);  // keep only suppkey == 1
  op.bloom_words.assign(bloom.words().begin(), bloom.words().end());
  op.bloom_hashes = bloom.num_hashes();
  op.bloom_seed = bloom.seed();
  connector::PushdownDecision decision;
  auto accepted = conn->OfferPushdown(*table, op, &spec, &decision);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_TRUE(*accepted) << decision.reason;

  auto plan = conn->GetSplits(*table, spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->splits.size(), 1u);
  ASSERT_NE(plan->splits[0].bloom_version, 0u);

  auto drain = [&](const connector::Split& split,
                   connector::PageSourceStats* stats) -> uint64_t {
    auto source = conn->CreatePageSource(*table, split, spec);
    EXPECT_TRUE(source.ok()) << source.status();
    uint64_t rows = 0;
    while (true) {
      auto batch = (*source)->Next();
      EXPECT_TRUE(batch.ok()) << batch.status();
      if (!*batch) break;
      rows += (**batch).num_rows();
    }
    *stats = (*source)->stats();
    return rows;
  };

  // Fresh pin: the bloom runs at storage and prunes nearly everything.
  connector::PageSourceStats fresh_stats;
  const uint64_t fresh_rows = drain(plan->splits[0], &fresh_stats);
  EXPECT_LT(fresh_rows, tpch.rows_per_file);
  EXPECT_GT(fresh_stats.bloom_rows_pruned, 0u);
  EXPECT_EQ(fresh_rows + fresh_stats.bloom_rows_pruned, tpch.rows_per_file);

  // Rewrite the object through the regular PUT path: the version moves,
  // the pinned split goes stale.
  auto rewritten = workloads::GenerateLineitem(tpch);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  for (auto& [key, bytes] : rewritten->files) {
    ASSERT_TRUE(
        bed.cluster().PutObject(rewritten->info.bucket, key, std::move(bytes))
            .ok());
  }

  // Stale pin: storage must skip the bloom wholesale and return every row.
  connector::PageSourceStats stale_stats;
  const uint64_t stale_rows = drain(plan->splits[0], &stale_stats);
  EXPECT_EQ(stale_rows, tpch.rows_per_file);
  EXPECT_EQ(stale_stats.bloom_rows_pruned, 0u);

  // Re-planning re-pins to the new version and pruning resumes.
  auto replanned = conn->GetSplits(*table, spec);
  ASSERT_TRUE(replanned.ok()) << replanned.status();
  ASSERT_EQ(replanned->splits.size(), 1u);
  EXPECT_GT(replanned->splits[0].bloom_version,
            plan->splits[0].bloom_version);
  connector::PageSourceStats repinned_stats;
  const uint64_t repinned_rows = drain(replanned->splits[0], &repinned_stats);
  EXPECT_LT(repinned_rows, tpch.rows_per_file);
  EXPECT_GT(repinned_stats.bloom_rows_pruned, 0u);
}

// Kill every in-storage executor: the identical pushed plan — bloom and
// partial phase included — re-runs engine-side via the fallback, with
// rows bit-identical to the healthy run.
TEST(JoinPushdownTest, DeadStorageExecutorFallsBackWithIdenticalRows) {
  JoinBedFixture fx;
  const std::string sql = workloads::TpchJoinQuery("lineitem", "supplier");

  auto healthy = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->metrics.fallbacks, 0u);

  for (size_t i = 0; i < fx.bed->cluster().num_storage_nodes(); ++i) {
    fx.bed->cluster().mutable_storage_node(i).faults().exec_crashed.store(true);
  }
  auto degraded = fx.bed->Run(sql, "ocs");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_GT(degraded->metrics.fallbacks, 0u);
  // The fallback applies the same bloom (version-checked) engine-side.
  EXPECT_GT(degraded->metrics.bloom_rows_pruned, 0u);
  EXPECT_EQ(CanonicalRows(*degraded->table), CanonicalRows(*healthy->table));
}

// The pipeline is a pure function of config + data seed: two beds built
// the same way agree on rows AND on every movement/pushdown counter.
TEST(JoinPushdownTest, DeterministicReplay) {
  const std::string sql = workloads::TpchJoinQuery("lineitem", "supplier");
  JoinBedFixture a;
  JoinBedFixture b;
  auto ra = a.bed->Run(sql, "ocs");
  auto rb = b.bed->Run(sql, "ocs");
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(CanonicalRows(*ra->table), CanonicalRows(*rb->table));
  EXPECT_EQ(ra->metrics.bytes_from_storage, rb->metrics.bytes_from_storage);
  EXPECT_EQ(ra->metrics.rows_returned, rb->metrics.rows_returned);
  EXPECT_EQ(ra->metrics.bloom_rows_pruned, rb->metrics.bloom_rows_pruned);
  EXPECT_EQ(ra->metrics.partial_agg_merges, rb->metrics.partial_agg_merges);
  EXPECT_EQ(ra->optimized_plan, rb->optimized_plan);
}

// Join shapes beyond TpchJoinQuery's phase-split aggregate. Each runs
// through the pushed ("ocs"), engine-only ("ocs_engine") and no-pushdown
// ("hive_raw") paths, which must agree bit-for-bit.
struct JoinShape {
  const char* name;
  const char* sql;
  bool order_sensitive;
};

// Test listings print the shape's name, not its pointer bytes.
void PrintTo(const JoinShape& shape, std::ostream* os) { *os << shape.name; }

const JoinShape kJoinShapes[] = {
    // No aggregation: every joined row reaches an engine-side top-N.
    {"TopNOverJoin",
     "SELECT orderkey, linenumber, extendedprice, s_nationkey, s_acctbal "
     "FROM lineitem JOIN supplier ON suppkey = s_suppkey "
     "WHERE s_nationkey < 3 "
     "ORDER BY extendedprice DESC, orderkey, linenumber LIMIT 25",
     true},
    // A conjunct over both tables lands above the join, under the
    // aggregate, so no path can split the aggregation into phases.
    {"MixedConjunctUnderAggregate",
     "SELECT s_nationkey, SUM(extendedprice) AS revenue, COUNT(*) AS n "
     "FROM lineitem JOIN supplier ON suppkey = s_suppkey "
     "WHERE quantity * 100.0 > s_acctbal GROUP BY s_nationkey",
     false},
    // A dim-side aggregate argument cannot be phase-split either.
    {"DimArgumentAggregate",
     "SELECT s_nationkey, AVG(s_acctbal) AS bal, MAX(extendedprice) AS top, "
     "COUNT(*) AS n FROM lineitem JOIN supplier ON suppkey = s_suppkey "
     "GROUP BY s_nationkey",
     false},
    // A fact-side OR: ocs pushes it and splits the aggregation into
    // phases, hive_raw cannot push it and aggregates the joined rows. The
    // aggregates are order-independent (quantity is integer-valued), so
    // the two operation trees must still agree exactly.
    {"FactOrFilter",
     "SELECT s_nationkey, SUM(quantity) AS q, AVG(quantity) AS avg_q, "
     "MIN(extendedprice) AS lo, COUNT(*) AS n "
     "FROM lineitem JOIN supplier ON suppkey = s_suppkey "
     "WHERE quantity < 5.0 OR discount > 0.09 GROUP BY s_nationkey",
     false},
};

class JoinShapeEquivalence : public ::testing::TestWithParam<JoinShape> {
 protected:
  static void SetUpTestSuite() {
    fixture = std::make_unique<JoinBedFixture>();
  }
  static void TearDownTestSuite() { fixture.reset(); }
  static std::unique_ptr<JoinBedFixture> fixture;
};

std::unique_ptr<JoinBedFixture> JoinShapeEquivalence::fixture;

TEST_P(JoinShapeEquivalence, AllPathsAgree) {
  const JoinShape& shape = GetParam();
  std::map<std::string, std::vector<std::string>> canon;
  for (const char* catalog : {"hive_raw", "ocs_engine", "ocs"}) {
    auto result = fixture->bed->Run(shape.sql, catalog);
    ASSERT_TRUE(result.ok()) << catalog << ": " << result.status() << "\n"
                             << shape.sql;
    ASSERT_GT(result->table->num_rows(), 0u) << catalog << "\n" << shape.sql;
    canon[catalog] = CanonicalRows(*result->table, shape.order_sensitive);
  }
  EXPECT_EQ(canon["ocs_engine"], canon["hive_raw"]) << shape.sql;
  EXPECT_EQ(canon["ocs"], canon["hive_raw"]) << shape.sql;
}

INSTANTIATE_TEST_SUITE_P(
    JoinShapes, JoinShapeEquivalence, ::testing::ValuesIn(kJoinShapes),
    [](const ::testing::TestParamInfo<JoinShape>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pocs
