// End-to-end observability: a query through the testbed must surface a
// fully populated QueryStats at the EventListener — wall time, rows
// scanned vs returned, bytes moved, pushdown accept/reject counts, and
// per-operator timings — for both the full-pushdown (ocs) and
// no-pushdown (hive_raw) paths, with the cross-path relationships the
// paper's Fig. 5 is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/metrics.h"
#include "connector/query_stats_collector.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs::workloads {
namespace {

using connector::QueryStats;
using connector::QueryStatsCollector;

constexpr size_t kFiles = 2;
constexpr size_t kRowsPerFile = 1 << 12;
// An OCS catalog with the planner's metadata cache on.
constexpr const char* kMetadataCatalog = "ocs_metadata";

struct ObservabilityFixture : ::testing::Test {
  static void SetUpTestSuite() {
    testbed = std::make_unique<Testbed>();
    LaghosConfig config;
    config.num_files = kFiles;
    config.rows_per_file = kRowsPerFile;
    config.rows_per_group = 1 << 10;
    auto data = GenerateLaghos(config);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_TRUE(testbed->Ingest(std::move(*data)).ok());
    // lineitem and supplier, for the join and the metadata-cache catalog.
    TpchConfig tpch;
    tpch.num_files = 2;
    tpch.rows_per_file = 4096;
    tpch.rows_per_group = 1024;
    auto fact = GenerateLineitem(tpch);
    ASSERT_TRUE(fact.ok()) << fact.status().ToString();
    ASSERT_TRUE(testbed->Ingest(std::move(*fact)).ok());
    auto dim = GenerateSupplier(SupplierConfig{});
    ASSERT_TRUE(dim.ok()) << dim.status().ToString();
    ASSERT_TRUE(testbed->Ingest(std::move(*dim)).ok());
    connectors::OcsConnectorConfig cached = testbed->config().ocs_connector;
    cached.metadata_cache_bytes = 1 << 20;
    testbed->RegisterOcsCatalog(kMetadataCatalog, cached);
  }
  static void TearDownTestSuite() { testbed.reset(); }

  static QueryStats RunAndGetStats(const std::string& catalog) {
    auto result = testbed->Run(LaghosQuery(), catalog);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return testbed->stats().last();
  }

  static std::unique_ptr<Testbed> testbed;
};

std::unique_ptr<Testbed> ObservabilityFixture::testbed;

TEST_F(ObservabilityFixture, PushdownQueryPopulatesQueryStats) {
  QueryStats stats = RunAndGetStats("ocs");

  // The acceptance triple: rows scanned, bytes moved, pushdown accepted.
  EXPECT_GT(stats.rows_scanned, 0u);
  EXPECT_GT(stats.bytes_moved(), 0u);
  EXPECT_GE(stats.pushdown_accepted, 1u);

  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.total, 0.0);
  EXPECT_GT(stats.result_rows, 0u);
  EXPECT_GT(stats.splits, 0u);
  EXPECT_EQ(stats.pushdown_offered,
            stats.pushdown_accepted + stats.pushdown_rejected);
  // The Laghos query's filter is highly selective: far fewer rows cross
  // the storage → compute boundary than are scanned at storage.
  EXPECT_LT(stats.rows_returned, stats.rows_scanned);

  // Per-operator timings include the Table 3 stages.
  std::set<std::string> names;
  for (const auto& t : stats.operator_timings) names.insert(t.name);
  EXPECT_TRUE(names.count("plan_analysis")) << "stages seen: " << names.size();
  EXPECT_TRUE(names.count("ir_generation"));
  EXPECT_TRUE(names.count("scan_transfer"));
  EXPECT_TRUE(names.count("post_scan"));
}

TEST_F(ObservabilityFixture, NonPushdownQueryScansEverythingAtCompute) {
  QueryStats stats = RunAndGetStats("hive_raw");

  // No operators accepted; the raw path still reports scan volume —
  // every generated row crosses the wire and is scanned compute-side.
  EXPECT_EQ(stats.pushdown_accepted, 0u);
  EXPECT_EQ(stats.rows_scanned, kFiles * kRowsPerFile);
  EXPECT_EQ(stats.rows_returned, kFiles * kRowsPerFile);
  EXPECT_GT(stats.bytes_moved(), 0u);
  EXPECT_GT(stats.result_rows, 0u);
}

TEST_F(ObservabilityFixture, PushdownMovesFewerBytesThanRaw) {
  QueryStats ocs = RunAndGetStats("ocs");
  QueryStats raw = RunAndGetStats("hive_raw");
  EXPECT_LT(ocs.bytes_moved(), raw.bytes_moved());
  EXPECT_LT(ocs.rows_returned, raw.rows_returned);
  // Both answer the same question over the same data.
  EXPECT_EQ(ocs.result_rows, raw.result_rows);
}

TEST_F(ObservabilityFixture, CollectorAggregatesAcrossQueriesAndCatalogs) {
  QueryStatsCollector& collector = testbed->stats();
  auto before = collector.totals();
  (void)RunAndGetStats("ocs");
  (void)RunAndGetStats("hive_raw");
  auto after = collector.totals();
  EXPECT_EQ(after.queries, before.queries + 2);
  EXPECT_GT(after.rows_scanned, before.rows_scanned);
  EXPECT_GT(after.bytes_from_storage, before.bytes_from_storage);
  EXPECT_GT(after.wall_seconds, before.wall_seconds);

  // Per-connector split: the ocs catalog accumulates accepted pushdowns,
  // the raw catalog none.
  auto ocs_totals = collector.TotalsFor("ocs");
  EXPECT_GT(ocs_totals.queries, 0u);
  EXPECT_GT(ocs_totals.pushdown_accepted, 0u);
  EXPECT_GT(ocs_totals.pushdown_accept_rate(), 0.0);
  auto raw_totals = collector.TotalsFor("hive_raw");
  EXPECT_GT(raw_totals.queries, 0u);
  EXPECT_EQ(raw_totals.pushdown_accepted, 0u);
  // Unknown ids read as zero.
  EXPECT_EQ(collector.TotalsFor("no_such_catalog").queries, 0u);
}

// A counters struct flattened in list order (common/counters.h).
struct FlatCounters {
  std::vector<std::string> count_names;
  std::vector<uint64_t> counts;
  std::vector<std::string> seconds_names;
  std::vector<double> seconds;
};

FlatCounters Flatten(const QueryCounters& counters) {
  FlatCounters flat;
  ForEachCounter(counters, [&](std::string_view name, const auto& value) {
    if constexpr (kIsCount<decltype(value)>) {
      flat.count_names.emplace_back(name);
      flat.counts.push_back(value);
    } else {
      flat.seconds_names.emplace_back(name);
      flat.seconds.push_back(value);
    }
  });
  return flat;
}

// Registry names that no per-query record owns (DESIGN.md §8.1).
bool HasNoPerQueryOwner(const std::string& name) {
  static const std::regex kFamilies(
      R"((rpc|netsim|exec|admission\.tenant)\..+)"
      R"(|dispatch\.(node\d+\.plans|plans_unrouted))"
      R"(|ocs\.(rowgroup|splitresult)_cache\.(hit|miss|insert|eviction))"
      R"(|storage\.(plans_executed|exec_rejected)|select\.requests)"
      R"(|connector\.hive\.raw_gets)");
  return std::regex_match(name, kFamilies);
}

// Generated from the counter list, so a new counter is covered without
// editing this test: for every count, the engine.<name> registry delta
// equals the collector's totals() delta, which equals the sum of the
// queries' result->metrics; every seconds field sums the same way. The
// queries cover every scan path — pushdown, S3 Select, raw GET, a join
// with its key bloom and the metadata cache — and afterwards the
// registry holds only the engine's fold and names no query owns.
TEST_F(ObservabilityFixture, EngineCountersMirrorIntoProcessRegistry) {
  auto& reg = metrics::Registry::Default();
  auto registry_counts = [&reg] {
    std::vector<uint64_t> values;
    for (const std::string& name : Flatten(QueryCounters{}).count_names) {
      values.push_back(reg.GetCounter("engine." + name).value());
    }
    return values;
  };
  const uint64_t queries_before = reg.GetCounter("engine.queries").value();
  const std::vector<uint64_t> registry_before = registry_counts();
  const QueryStatsCollector::Totals totals_before = testbed->stats().totals();

  const std::vector<std::pair<std::string, std::string>> runs = {
      {LaghosQuery(), "ocs"},
      {LaghosQuery(), "hive"},
      {LaghosQuery(), "hive_raw"},
      {TpchJoinQuery("lineitem", "supplier"), "ocs"},
      {TpchSelectiveQuery(), kMetadataCatalog},
      {TpchSelectiveQuery(), kMetadataCatalog},
  };
  QueryCounters sum;
  for (const auto& [sql, catalog] : runs) {
    auto result = testbed->Run(sql, catalog);
    ASSERT_TRUE(result.ok()) << catalog << ": " << result.status().ToString();
    sum += result->metrics;
  }

  const std::vector<uint64_t> registry_after = registry_counts();
  const QueryStatsCollector::Totals totals_after = testbed->stats().totals();
  EXPECT_EQ(reg.GetCounter("engine.queries").value(),
            queries_before + runs.size());
  EXPECT_EQ(totals_after.queries, totals_before.queries + runs.size());
  EXPECT_GT(reg.GetHistogram("engine.query_wall_seconds").count(), 0u);

  const FlatCounters before = Flatten(totals_before);
  const FlatCounters after = Flatten(totals_after);
  const FlatCounters summed = Flatten(sum);
  ASSERT_EQ(registry_after.size(), summed.counts.size());
  for (size_t i = 0; i < summed.counts.size(); ++i) {
    const std::string& name = summed.count_names[i];
    EXPECT_EQ(registry_after[i] - registry_before[i],
              after.counts[i] - before.counts[i])
        << "engine." << name;
    EXPECT_EQ(after.counts[i] - before.counts[i], summed.counts[i]) << name;
  }
  for (size_t i = 0; i < summed.seconds.size(); ++i) {
    EXPECT_NEAR(after.seconds[i] - before.seconds[i], summed.seconds[i],
                1e-9 * std::max(1.0, after.seconds[i]))
        << summed.seconds_names[i];
  }
  EXPECT_GT(sum.rows_scanned, 0u);
  EXPECT_GT(sum.pushdown_accepted, 0u);
  EXPECT_GT(sum.bloom_pushed, 0u);
  EXPECT_GT(sum.metadata_cache_misses, 0u);
  EXPECT_GT(sum.metadata_cache_hits, 0u);

  // One sink: each registry name is the engine's fold of these counts or
  // a fact no per-query record owns.
  std::set<std::string> fold = {"engine.queries", "engine.query_wall_seconds"};
  for (const std::string& name : before.count_names) {
    fold.insert("engine." + name);
  }
  for (const metrics::MetricSample& s : reg.Snapshot()) {
    EXPECT_TRUE(fold.count(s.name) > 0 || HasNoPerQueryOwner(s.name))
        << s.name << " counts what a query record already holds";
  }
}

TEST_F(ObservabilityFixture, LegacyEventFieldsStayPopulated) {
  // A listener receives the very record the query returned: capture a
  // raw event through a secondary listener.
  struct Capture final : connector::EventListener {
    connector::QueryEvent event;
    void QueryCompleted(const connector::QueryEvent& e) override {
      event = e;
    }
  };
  auto capture = std::make_shared<Capture>();
  testbed->engine().AddEventListener(capture);
  auto result = testbed->Run(LaghosQuery(), "ocs");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(capture->event.connector_id, "ocs");
  EXPECT_FALSE(capture->event.query_id.empty());

  const QueryStats& stats = capture->event.stats;
  const FlatCounters got = Flatten(stats);
  const FlatCounters want = Flatten(result->metrics);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.seconds, want.seconds);
  EXPECT_EQ(stats.tenant, result->metrics.tenant);
  EXPECT_EQ(stats.pushdown_decisions.size(),
            result->metrics.pushdown_decisions.size());
  EXPECT_EQ(stats.operator_timings.size(),
            result->metrics.operator_timings.size());
  EXPECT_GT(stats.bytes_from_storage, 0u);
  EXPECT_GT(stats.total, 0.0);
}

}  // namespace
}  // namespace pocs::workloads
