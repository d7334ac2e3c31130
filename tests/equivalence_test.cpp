// Property test: pushdown must never change query answers. A generator
// enumerates a family of queries over the Laghos schema (filters of
// varying selectivity, aggregates, group keys, projections, sort/top-N/
// limit combinations); every query runs through hive_raw (reference),
// hive (Select pushdown), and ocs (full pushdown) and results must agree
// bit-for-bit after canonicalization. Also covers failure injection:
// corrupt objects, missing objects, and strict-typed S3 mode.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "workloads/concurrent.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"

namespace pocs::workloads {
namespace {

struct EquivalenceFixture : ::testing::Test {
  static void SetUpTestSuite() {
    testbed = std::make_unique<Testbed>();
    LaghosConfig config;
    config.num_files = 3;
    config.rows_per_file = 1 << 12;
    config.rows_per_vertex = 8;
    auto data = GenerateLaghos(config);
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(testbed->Ingest(std::move(*data)).ok());
  }
  static void TearDownTestSuite() { testbed.reset(); }
  static std::unique_ptr<Testbed> testbed;
};

std::unique_ptr<Testbed> EquivalenceFixture::testbed;

// The query family. ORDER BY-less aggregate/selection results are
// compared order-insensitively; sorted queries order-sensitively.
struct QueryCase {
  const char* sql;
  bool order_sensitive;
};

const QueryCase kQueries[] = {
    // filters of varying selectivity
    {"SELECT vertex_id, e FROM laghos WHERE x < 0.01", false},
    {"SELECT vertex_id, e FROM laghos WHERE x < 2.0 AND y > 1.0", false},
    {"SELECT vertex_id FROM laghos WHERE x BETWEEN 0.8 AND 3.2 "
     "AND y BETWEEN 0.8 AND 3.2 AND z BETWEEN 0.8 AND 3.2", false},
    {"SELECT vertex_id FROM laghos WHERE x > 100.0", false},  // empty result
    {"SELECT vertex_id FROM laghos WHERE x > 1.0 OR z < 0.5", false},
    {"SELECT vertex_id FROM laghos WHERE NOT (e > 500.0)", false},
    // projections with arithmetic
    {"SELECT vertex_id % 7 AS b, e * 2.0 + 1.0 AS ee FROM laghos "
     "WHERE e > 990", false},
    // global aggregates
    {"SELECT COUNT(*) AS n FROM laghos", false},
    {"SELECT COUNT(*) AS n, SUM(e) AS s, MIN(x) AS lo, MAX(y) AS hi, "
     "AVG(z) AS m FROM laghos WHERE x < 3.0", false},
    {"SELECT COUNT(*) AS n FROM laghos WHERE x > 100.0", false},  // zero rows
    // grouped aggregates (vertex ranges are split-disjoint)
    {"SELECT vertex_id, COUNT(*) AS n, AVG(e) AS m FROM laghos "
     "GROUP BY vertex_id", false},
    {"SELECT min(x), avg(e) AS m FROM laghos WHERE y < 2.0 "
     "GROUP BY vertex_id", false},
    // expression group keys force a pre-agg project
    {"SELECT vertex_id % 5 AS b, SUM(e) AS s FROM laghos "
     "GROUP BY vertex_id % 5", false},
    // sort / top-N / limit
    {"SELECT vertex_id, e FROM laghos WHERE e > 995 ORDER BY e DESC", true},
    {"SELECT vertex_id, e FROM laghos ORDER BY e LIMIT 13", true},
    {"SELECT vertex_id, AVG(e) AS m FROM laghos GROUP BY vertex_id "
     "ORDER BY m LIMIT 9", true},
    {"SELECT vertex_id, AVG(e) AS m FROM laghos WHERE x < 3.5 "
     "GROUP BY vertex_id ORDER BY m DESC LIMIT 4", true},
    // multi-key sort with ties
    {"SELECT vertex_id % 3 AS a, vertex_id % 2 AS b, COUNT(*) AS n "
     "FROM laghos GROUP BY vertex_id % 3, vertex_id % 2 "
     "ORDER BY a, b", true},
    // IN lists (desugar to OR chains; hive cannot push disjunctions)
    {"SELECT vertex_id, x FROM laghos WHERE vertex_id IN (1, 5, 9)", false},
    {"SELECT vertex_id FROM laghos WHERE vertex_id NOT IN (1, 5, 9) "
     "AND vertex_id < 12", false},
    // IS [NOT] NULL (generator data has no nulls: exercises both branches)
    {"SELECT COUNT(*) AS n FROM laghos WHERE e IS NULL", false},
    {"SELECT COUNT(*) AS n FROM laghos WHERE e IS NOT NULL AND x < 1.0",
     false},
    // HAVING over aggregation output (residual filter, never pushed)
    {"SELECT vertex_id, COUNT(*) AS n FROM laghos GROUP BY vertex_id "
     "HAVING n > 7", false},
    {"SELECT vertex_id, AVG(e) AS m FROM laghos GROUP BY vertex_id "
     "HAVING m > 500.0 ORDER BY m DESC LIMIT 5", true},
    // an integer column against a fractional literal compares as double
    // on every path (never as vertex_id < 2)
    {"SELECT COUNT(*) AS n, SUM(e) AS s FROM laghos WHERE vertex_id < 2.5",
     false},
    // top-N over groups that span objects: every object holds all five
    // buckets, so storage must not bound each split's partial groups
    {"SELECT vertex_id % 5 AS b, SUM(e) AS s FROM laghos "
     "GROUP BY vertex_id % 5 ORDER BY s DESC LIMIT 2", true},
};

class PushdownEquivalence
    : public EquivalenceFixture,
      public ::testing::WithParamInterface<size_t> {};

TEST_P(PushdownEquivalence, AllPathsAgree) {
  const QueryCase& qc = kQueries[GetParam()];
  std::map<std::string, std::vector<std::string>> canon;
  for (const char* catalog : {"hive_raw", "hive", "ocs"}) {
    auto result = testbed->Run(qc.sql, catalog);
    ASSERT_TRUE(result.ok()) << catalog << ": " << result.status() << "\n"
                             << qc.sql;
    canon[catalog] = CanonicalRows(*result->table, qc.order_sensitive);
  }
  EXPECT_EQ(canon["hive"], canon["hive_raw"]) << qc.sql;
  EXPECT_EQ(canon["ocs"], canon["hive_raw"]) << qc.sql;
}

INSTANTIATE_TEST_SUITE_P(QueryFamily, PushdownEquivalence,
                         ::testing::Range(size_t{0}, std::size(kQueries)));

// LIMIT-only pushdown: row count correct; per-split cap recorded.
TEST_F(EquivalenceFixture, LimitOnlyPushdown) {
  auto result = testbed->Run("SELECT vertex_id FROM laghos LIMIT 17", "ocs");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->table->num_rows(), 17u);
  EXPECT_NE(result->optimized_plan.find("pushed:limit"), std::string::npos)
      << result->optimized_plan;
  // Each of the 3 splits returns at most 17 rows.
  EXPECT_LE(result->metrics.rows_returned, 3u * 17u);
}

TEST_F(EquivalenceFixture, LimitAfterFilterPushdown) {
  auto raw =
      testbed->Run("SELECT COUNT(*) AS n FROM laghos WHERE e > 900", "hive_raw");
  ASSERT_TRUE(raw.ok());
  int64_t matching = raw->table->column(0)->GetInt64(0);
  auto result = testbed->Run(
      "SELECT vertex_id FROM laghos WHERE e > 900 LIMIT 5", "ocs");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table->num_rows(),
            std::min<int64_t>(5, matching));
  EXPECT_NE(result->optimized_plan.find("pushed:filter,limit"),
            std::string::npos)
      << result->optimized_plan;
}

// ---- failure injection ------------------------------------------------------

TEST_F(EquivalenceFixture, CorruptObjectFailsCleanlyOnAllPaths) {
  // Separate testbed so we do not poison the shared fixture.
  Testbed local;
  LaghosConfig config;
  config.num_files = 2;
  config.rows_per_file = 1 << 10;
  auto data = GenerateLaghos(config);
  ASSERT_TRUE(data.ok());
  // Corrupt the second file's body before ingest.
  auto& bytes = data->files[1].second;
  for (size_t i = 100; i < 200 && i < bytes.size(); ++i) bytes[i] ^= 0xFF;
  ASSERT_TRUE(local.Ingest(std::move(*data)).ok());
  for (const char* catalog : {"hive_raw", "hive", "ocs"}) {
    auto result = local.Run(LaghosQuery(), catalog);
    EXPECT_FALSE(result.ok()) << catalog << " accepted corrupt data";
  }
}

TEST_F(EquivalenceFixture, MissingObjectFailsCleanly) {
  Testbed local;
  LaghosConfig config;
  config.num_files = 2;
  config.rows_per_file = 1 << 10;
  auto data = GenerateLaghos(config);
  ASSERT_TRUE(data.ok());
  // Register a table that claims an object which is never uploaded.
  data->info.objects.push_back("laghos/ghost");
  for (auto& [key, bytes] : data->files) {
    ASSERT_TRUE(local.cluster().PutObject("hpc", key, std::move(bytes)).ok());
  }
  data->files.clear();
  ASSERT_TRUE(local.metastore().RegisterTable(std::move(data->info)).ok());
  for (const char* catalog : {"hive_raw", "hive", "ocs"}) {
    auto result = local.Run("SELECT COUNT(*) AS n FROM laghos", catalog);
    EXPECT_FALSE(result.ok()) << catalog;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << catalog;
  }
}

TEST_F(EquivalenceFixture, StrictS3ModeFallsBackAndStaysCorrect) {
  TestbedConfig config;
  config.hive.s3_strict_types = true;  // real S3 Select: no doubles
  Testbed local(config);
  LaghosConfig laghos;
  laghos.num_files = 2;
  laghos.rows_per_file = 1 << 10;
  auto data = GenerateLaghos(laghos);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(local.Ingest(std::move(*data)).ok());

  // The float64 filter cannot be pushed in strict mode...
  auto strict = local.Run(
      "SELECT vertex_id, e FROM laghos WHERE x < 1.0", "hive");
  ASSERT_TRUE(strict.ok()) << strict.status();
  ASSERT_EQ(strict->metrics.pushdown_decisions.size(), 1u);
  EXPECT_FALSE(strict->metrics.pushdown_decisions[0].accepted);
  // ...but results are still correct (compute-side filtering).
  auto reference = local.Run(
      "SELECT vertex_id, e FROM laghos WHERE x < 1.0", "hive_raw");
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(CanonicalRows(*strict->table, false),
            CanonicalRows(*reference->table, false));
  // And strict mode moves more data than permissive Select mode would.
  EXPECT_EQ(strict->metrics.bytes_from_storage,
            reference->metrics.bytes_from_storage);
}

TEST_F(EquivalenceFixture, ConcurrentQueriesAreIsolated) {
  // The engine, connectors, cluster, and network must tolerate concurrent
  // queries (Presto serves many). Fire a mixed workload from 4 threads.
  const char* sqls[] = {
      "SELECT COUNT(*) AS n FROM laghos",
      "SELECT vertex_id, AVG(e) AS m FROM laghos GROUP BY vertex_id "
      "ORDER BY m LIMIT 3",
      "SELECT vertex_id FROM laghos WHERE x < 0.5",
      "SELECT MIN(x) AS lo, MAX(x) AS hi FROM laghos",
  };
  // Reference results, sequential.
  std::vector<std::vector<std::string>> expected;
  for (const char* sql : sqls) {
    auto r = testbed->Run(sql, "ocs");
    ASSERT_TRUE(r.ok());
    expected.push_back(CanonicalRows(*r->table, false));
  }
  std::vector<std::thread> threads;
  std::vector<Status> statuses(16);
  std::vector<std::vector<std::string>> got(16);
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      // Note: Run() resets network counters; metrics races are expected
      // under concurrency, result correctness is not.
      auto r = testbed->engine().Execute(sqls[t % 4], "ocs");
      if (!r.ok()) {
        statuses[t] = r.status();
        return;
      }
      got[t] = CanonicalRows(*r->table, false);
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 16; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t];
    EXPECT_EQ(got[t], expected[t % 4]) << sqls[t % 4];
  }
}

TEST_F(EquivalenceFixture, EmptyTableQueries) {
  Testbed local;
  metastore::TableInfo info;
  info.schema_name = "default";
  info.table_name = "empty";
  info.bucket = "hpc";
  info.schema = LaghosSchema();
  info.column_stats.resize(info.schema->num_fields());
  ASSERT_TRUE(local.metastore().RegisterTable(std::move(info)).ok());
  for (const char* catalog : {"hive_raw", "hive", "ocs"}) {
    auto count = local.Run("SELECT COUNT(*) AS n FROM empty", catalog);
    ASSERT_TRUE(count.ok()) << catalog << ": " << count.status();
    ASSERT_EQ(count->table->num_rows(), 1u);  // SQL: global agg over void
    EXPECT_EQ(count->table->column(0)->GetInt64(0), 0);
    auto rows = local.Run("SELECT x FROM empty WHERE x > 1.0", catalog);
    ASSERT_TRUE(rows.ok()) << catalog;
    EXPECT_EQ(rows->table->num_rows(), 0u);
  }
}

TEST_F(EquivalenceFixture, CsvRowFormatCostsMoreThanArrow) {
  // §2.2: S3 Select returns row-oriented text, losing columnar-format
  // efficiency. Same filter-only pushdown, two transports: the Select
  // CSV path must move more bytes than the OCS Arrow path.
  connectors::OcsConnectorConfig filter_only;
  filter_only.pushdown_projection = false;
  filter_only.pushdown_aggregation = false;
  filter_only.pushdown_topn = false;
  testbed->RegisterOcsCatalog("ocs_filter_only", filter_only);
  const char* sql = "SELECT vertex_id, e FROM laghos WHERE x < 2.0";
  auto csv = testbed->Run(sql, "hive");
  auto arrow = testbed->Run(sql, "ocs_filter_only");
  ASSERT_TRUE(csv.ok() && arrow.ok());
  EXPECT_EQ(csv->metrics.rows_returned, arrow->metrics.rows_returned);
  EXPECT_GT(csv->metrics.bytes_from_storage,
            arrow->metrics.bytes_from_storage)
      << "row-format results must be bulkier than columnar ones";
}

TEST_F(EquivalenceFixture, MultiStorageNodeClusterAgrees) {
  TestbedConfig config;
  config.cluster.num_storage_nodes = 3;
  Testbed local(config);
  LaghosConfig laghos;
  laghos.num_files = 6;
  laghos.rows_per_file = 1 << 10;
  auto data = GenerateLaghos(laghos);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(local.Ingest(std::move(*data)).ok());
  auto ocs = local.Run(LaghosQuery("laghos", 20), "ocs");
  auto raw = local.Run(LaghosQuery("laghos", 20), "hive_raw");
  ASSERT_TRUE(ocs.ok()) << ocs.status();
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(CanonicalRows(*ocs->table, true), CanonicalRows(*raw->table, true));
  // Objects really are spread over multiple nodes.
  size_t populated = 0;
  for (size_t i = 0; i < local.cluster().num_storage_nodes(); ++i) {
    if (local.cluster().storage_node(i).store()->ObjectCount() > 0) {
      ++populated;
    }
  }
  EXPECT_EQ(populated, 3u);
}

}  // namespace
}  // namespace pocs::workloads
