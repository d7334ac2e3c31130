// End-to-end integration: the full testbed (engine + connectors + OCS
// cluster + object store + simulated network) running the paper's three
// workload queries through all three access paths, checking
//   (1) result equivalence — pushdown must never change answers,
//   (2) data-movement ordering — ocs << hive(select) << hive_raw,
//   (3) pushdown decision records and monitoring.
#include <gtest/gtest.h>

#include <map>

#include "workloads/concurrent.h"
#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "engine/time_model.h"
#include "workloads/tpch.h"

namespace pocs::workloads {
namespace {

using engine::QueryResult;

struct TestbedFixture : ::testing::Test {
  static void SetUpTestSuite() {
    testbed = std::make_unique<Testbed>();
    LaghosConfig laghos;
    laghos.num_files = 4;
    laghos.rows_per_file = 1 << 13;
    laghos.rows_per_group = 1 << 11;
    auto laghos_data = GenerateLaghos(laghos);
    ASSERT_TRUE(laghos_data.ok()) << laghos_data.status();
    ASSERT_TRUE(testbed->Ingest(std::move(*laghos_data)).ok());

    DeepWaterConfig deepwater;
    deepwater.num_files = 4;
    deepwater.rows_per_file = 1 << 13;
    deepwater.rows_per_group = 1 << 11;
    auto dw_data = GenerateDeepWater(deepwater);
    ASSERT_TRUE(dw_data.ok());
    ASSERT_TRUE(testbed->Ingest(std::move(*dw_data)).ok());

    TpchConfig tpch;
    tpch.num_files = 3;
    tpch.rows_per_file = 1 << 13;
    tpch.rows_per_group = 1 << 11;
    auto tpch_data = GenerateLineitem(tpch);
    ASSERT_TRUE(tpch_data.ok());
    ASSERT_TRUE(testbed->Ingest(std::move(*tpch_data)).ok());
  }
  static void TearDownTestSuite() { testbed.reset(); }

  static std::unique_ptr<Testbed> testbed;
};

std::unique_ptr<Testbed> TestbedFixture::testbed;

struct PathResults {
  std::map<std::string, QueryResult> by_catalog;
};

PathResults RunAllPaths(Testbed* testbed, const std::string& sql) {
  PathResults results;
  for (const char* catalog : {"hive_raw", "hive", "ocs"}) {
    auto result = testbed->Run(sql, catalog);
    EXPECT_TRUE(result.ok()) << catalog << ": " << result.status();
    if (result.ok()) results.by_catalog[catalog] = std::move(*result);
  }
  return results;
}

TEST_F(TestbedFixture, LaghosResultsAgreeAcrossPaths) {
  auto results = RunAllPaths(testbed.get(), LaghosQuery());
  ASSERT_EQ(results.by_catalog.size(), 3u);
  const std::vector<std::string> reference =
      CanonicalRows(*results.by_catalog["hive_raw"].table);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(CanonicalRows(*results.by_catalog["hive"].table), reference);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference);
  EXPECT_EQ(results.by_catalog["ocs"].table->num_rows(), 100u);
}

TEST_F(TestbedFixture, LaghosDataMovementOrdering) {
  auto results = RunAllPaths(testbed.get(), LaghosQuery());
  uint64_t raw = results.by_catalog["hive_raw"].metrics.bytes_from_storage;
  uint64_t select = results.by_catalog["hive"].metrics.bytes_from_storage;
  uint64_t ocs = results.by_catalog["ocs"].metrics.bytes_from_storage;
  EXPECT_GT(raw, select);
  EXPECT_GT(select, ocs * 10) << "full pushdown must move ≫10x less";
}

TEST_F(TestbedFixture, LaghosPushdownDecisions) {
  auto result = testbed->Run(LaghosQuery(), "ocs");
  ASSERT_TRUE(result.ok());
  // Filter, aggregation, and top-N all accepted.
  ASSERT_EQ(result->metrics.pushdown_decisions.size(), 3u);
  for (const auto& d : result->metrics.pushdown_decisions) {
    EXPECT_TRUE(d.accepted) << d.reason;
  }
  EXPECT_EQ(result->optimized_plan,
            "TableScan[pushed:filter,aggregation,topn] -> Aggregation -> "
            "TopN -> Project(identity)");
}

// A per-split top-N or limit above a partial aggregation is exact only
// when no group spans two objects. Registration marks the columns whose
// values stay in one object; grouping on anything else — linestatus and
// suppkey occur in every lineitem object, each vertex_id % 5 bucket in
// every laghos object — keeps the top-N at the engine.
TEST_F(TestbedFixture, TopNAboveGroupsSpanningObjects) {
  auto laghos = testbed->metastore().GetTable("default", "laghos");
  auto lineitem = testbed->metastore().GetTable("default", "lineitem");
  auto deepwater = testbed->metastore().GetTable("default", "deepwater");
  ASSERT_TRUE(laghos.ok() && lineitem.ok() && deepwater.ok());
  EXPECT_TRUE(laghos->ObjectDisjoint(laghos->schema->FieldIndex("vertex_id")));
  EXPECT_FALSE(laghos->ObjectDisjoint(laghos->schema->FieldIndex("x")));
  EXPECT_TRUE(
      deepwater->ObjectDisjoint(deepwater->schema->FieldIndex("timestep")));
  EXPECT_FALSE(
      lineitem->ObjectDisjoint(lineitem->schema->FieldIndex("linestatus")));

  for (const char* sql :
       {"SELECT linestatus, SUM(extendedprice) AS s FROM lineitem "
        "WHERE quantity < 10 GROUP BY linestatus ORDER BY s LIMIT 1",
        "SELECT suppkey, SUM(quantity) AS q FROM lineitem GROUP BY suppkey "
        "ORDER BY q DESC LIMIT 3",
        "SELECT vertex_id % 5 AS b, SUM(e) AS s FROM laghos "
        "GROUP BY vertex_id % 5 ORDER BY s DESC LIMIT 2"}) {
    auto results = RunAllPaths(testbed.get(), sql);
    ASSERT_EQ(results.by_catalog.size(), 3u) << sql;
    const auto reference =
        CanonicalRows(*results.by_catalog["hive_raw"].table);
    EXPECT_EQ(CanonicalRows(*results.by_catalog["hive"].table), reference)
        << sql;
    EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference)
        << sql;
    const auto& decisions =
        results.by_catalog["ocs"].metrics.pushdown_decisions;
    ASSERT_FALSE(decisions.empty()) << sql;
    EXPECT_EQ(decisions.back().kind,
              connector::PushedOperator::Kind::kPartialTopN) << sql;
    EXPECT_FALSE(decisions.back().accepted) << sql;
  }
}

TEST_F(TestbedFixture, DeepWaterResultsAgreeAcrossPaths) {
  auto results = RunAllPaths(testbed.get(), DeepWaterQuery());
  ASSERT_EQ(results.by_catalog.size(), 3u);
  const std::vector<std::string> reference =
      CanonicalRows(*results.by_catalog["hive_raw"].table);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["hive"].table), reference);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference);
  // One group per timestep file.
  EXPECT_EQ(results.by_catalog["ocs"].table->num_rows(), 4u);
}

TEST_F(TestbedFixture, TpchQ1ResultsAgreeAcrossPaths) {
  auto results = RunAllPaths(testbed.get(), TpchQ1());
  ASSERT_EQ(results.by_catalog.size(), 3u);
  const std::vector<std::string> reference =
      CanonicalRows(*results.by_catalog["hive_raw"].table);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["hive"].table), reference);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference);
  // Q1 yields exactly 4 groups: (A,F), (N,F), (N,O), (R,F).
  EXPECT_EQ(results.by_catalog["ocs"].table->num_rows(), 4u);
  // Sorted by returnflag, linestatus.
  const auto& table = *results.by_catalog["ocs"].table;
  EXPECT_EQ(table.column(0)->GetString(0), "A");
  EXPECT_EQ(table.column(0)->GetString(3), "R");
}

TEST_F(TestbedFixture, TpchQ1FilterBarelyReducesMovement) {
  // Paper: filter keeps ~99% of rows, so select-path movement is close to
  // the (projected) raw volume, yet aggregation pushdown crushes it.
  auto hive = testbed->Run(TpchQ1(), "hive");
  auto ocs = testbed->Run(TpchQ1(), "ocs");
  ASSERT_TRUE(hive.ok() && ocs.ok());
  EXPECT_GT(hive->metrics.rows_returned,
            testbed->metastore().GetTable("default", "lineitem")->row_count *
                95 / 100);
  EXPECT_LE(ocs->metrics.rows_returned, 4u * 3u);  // ≤ groups × splits
}

TEST_F(TestbedFixture, OcsAggregationPushdownReturnsPartials) {
  auto result = testbed->Run(DeepWaterQuery(), "ocs");
  ASSERT_TRUE(result.ok());
  // 4 splits × 1 group (timestep constant per file) = 4 partial rows.
  EXPECT_EQ(result->metrics.rows_returned, 4u);
  EXPECT_GT(result->metrics.storage_compute_seconds, 0.0);
}

TEST_F(TestbedFixture, TransferRooflineOrderingMatchesPaper) {
  // At unit-test scale measured compute dominates the tiny modelled
  // transfer, so end-to-end totals are checked at bench scale. Here we
  // assert the scale-independent core of Fig. 5(a): given each path's
  // MEASURED data movement, the transfer model orders them correctly.
  auto raw = testbed->Run(LaghosQuery(), "hive_raw");
  auto select = testbed->Run(LaghosQuery(), "hive");
  auto ocs = testbed->Run(LaghosQuery(), "ocs");
  ASSERT_TRUE(raw.ok() && select.ok() && ocs.ok());
  auto transfer_time = [&](const engine::QueryMetrics& m) {
    engine::SplitStageTotals totals;
    totals.bytes_moved = m.bytes_from_storage + m.bytes_to_storage;
    totals.messages = 2 * m.splits;
    totals.splits = m.splits;
    return engine::SplitStageSeconds(totals, testbed->engine().config().time_model);
  };
  EXPECT_GT(transfer_time(raw->metrics), transfer_time(select->metrics));
  EXPECT_GT(transfer_time(select->metrics), transfer_time(ocs->metrics));
}

TEST_F(TestbedFixture, EventListenerRecordsHistory) {
  size_t before = testbed->history().window_size();
  ASSERT_TRUE(testbed->Run(LaghosQuery(), "ocs").ok());
  EXPECT_EQ(testbed->history().window_size(), before + 1);
  auto stats = testbed->history().StatsFor(
      connector::PushedOperator::Kind::kPartialAggregation);
  EXPECT_GT(stats.offered, 0u);
  EXPECT_GT(stats.accept_rate(), 0.0);
}

TEST_F(TestbedFixture, UnknownTableAndCatalogErrors) {
  EXPECT_FALSE(testbed->Run("SELECT a FROM missing", "ocs").ok());
  EXPECT_FALSE(testbed->Run("SELECT a FROM laghos", "nope").ok());
}

TEST_F(TestbedFixture, Table3StyleBreakdownIsPopulated) {
  auto result = testbed->Run(LaghosQuery(), "ocs");
  ASSERT_TRUE(result.ok());
  const auto& m = result->metrics;
  EXPECT_GT(m.logical_plan_analysis, 0.0);
  EXPECT_GT(m.ir_generation_seconds, 0.0);
  EXPECT_GT(m.pushdown_and_transfer, 0.0);
  EXPECT_GT(m.total, 0.0);
  EXPECT_GE(m.total, m.logical_plan_analysis + m.ir_generation_seconds);
  // The paper's Table 3: plan analysis + IR generation < 2% of total...
  // at test scale we only assert they are a minority share.
  EXPECT_LT(m.logical_plan_analysis + m.ir_generation_seconds, m.total);
}

TEST_F(TestbedFixture, PruningCountersSurfaceInMetrics) {
  // Laghos vertex_id is monotone within a file: a narrow range predicate
  // must prune most row groups, and the counters must say so.
  auto result = testbed->Run(
      "SELECT COUNT(*) AS n FROM laghos WHERE vertex_id < 10", "ocs");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.row_groups_total, 0u);
  EXPECT_GT(result->metrics.row_groups_skipped, 0u);
  EXPECT_LT(result->metrics.row_groups_skipped,
            result->metrics.row_groups_total);
  // A predicate on a uniform column prunes nothing.
  auto uniform = testbed->Run(
      "SELECT COUNT(*) AS n FROM laghos WHERE x < 2.0", "ocs");
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform->metrics.row_groups_skipped, 0u);
}

TEST_F(TestbedFixture, TpchQ6SelectiveFilterRegime) {
  // Q6 is the opposite regime from Q1: the filter keeps only a few
  // percent of rows, so even filter-only pushdown crushes movement, and
  // the global aggregate collapses to one row per split.
  auto results = RunAllPaths(testbed.get(), TpchQ6());
  ASSERT_EQ(results.by_catalog.size(), 3u);
  auto reference = CanonicalRows(*results.by_catalog["hive_raw"].table);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["hive"].table), reference);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference);
  EXPECT_EQ(results.by_catalog["ocs"].table->num_rows(), 1u);
  // Filter keeps ~1/6.5 (year) x ~0.27 (discount band) x ~0.47 (quantity)
  // ≈ 2% of rows.
  uint64_t total =
      testbed->metastore().GetTable("default", "lineitem")->row_count;
  uint64_t kept = results.by_catalog["hive"].metrics.rows_returned;
  EXPECT_LT(kept, total / 20);
  EXPECT_GT(kept, total / 200);
  // Full pushdown: one partial row per split.
  EXPECT_EQ(results.by_catalog["ocs"].metrics.rows_returned, 3u);
}

// Non-paper query shapes through the full stack.
TEST_F(TestbedFixture, GlobalAggregateNoGroupBy) {
  auto results = RunAllPaths(
      testbed.get(), "SELECT COUNT(*) AS n, AVG(e) AS m FROM laghos WHERE x < 2.0");
  ASSERT_EQ(results.by_catalog.size(), 3u);
  auto reference = CanonicalRows(*results.by_catalog["hive_raw"].table);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference);
  EXPECT_EQ(results.by_catalog["ocs"].table->num_rows(), 1u);
}

// INT64_MIN / -1 overflows: the evaluator answers NULL (as for / 0)
// instead of trapping, on every access path.
TEST_F(TestbedFixture, OverflowingIntegerDivisionIsNull) {
  auto results = RunAllPaths(
      testbed.get(),
      "SELECT MIN((orderkey - orderkey - 9223372036854775807 - 1) / -1) "
      "AS m FROM lineitem");
  ASSERT_EQ(results.by_catalog.size(), 3u);
  for (const auto& [catalog, result] : results.by_catalog) {
    ASSERT_EQ(result.table->num_rows(), 1u) << catalog;
    EXPECT_TRUE(result.table->column(0)->IsNull(0)) << catalog;
  }
}

TEST_F(TestbedFixture, PlainSelectionQuery) {
  auto results = RunAllPaths(
      testbed.get(),
      "SELECT vertex_id, e FROM laghos WHERE e > 995 ORDER BY e DESC LIMIT 7");
  ASSERT_EQ(results.by_catalog.size(), 3u);
  auto reference = CanonicalRows(*results.by_catalog["hive_raw"].table);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["hive"].table), reference);
  EXPECT_EQ(CanonicalRows(*results.by_catalog["ocs"].table), reference);
  EXPECT_EQ(results.by_catalog["ocs"].table->num_rows(), 7u);
}

TEST_F(TestbedFixture, SortWithoutLimit) {
  auto results = RunAllPaths(
      testbed.get(),
      "SELECT timestep, MAX(v02) AS mx FROM deepwater GROUP BY timestep "
      "ORDER BY timestep DESC");
  ASSERT_EQ(results.by_catalog.size(), 3u);
  const auto& table = *results.by_catalog["ocs"].table;
  ASSERT_EQ(table.num_rows(), 4u);
  EXPECT_EQ(table.column(0)->GetInt32(0), 3);  // descending timesteps
  EXPECT_EQ(CanonicalRows(table),
            CanonicalRows(*results.by_catalog["hive_raw"].table));
}

}  // namespace
}  // namespace pocs::workloads
