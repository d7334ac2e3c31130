// Tests for the simulated-time model (engine/time_model.h) and the
// workload generators' statistical properties — both load-bearing for
// the benchmark reproductions.
#include <gtest/gtest.h>

#include <set>

#include "engine/time_model.h"
#include "format/parquet_lite.h"
#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace pocs {
namespace {

using engine::SplitStageSeconds;
using engine::SplitStageTotals;
using engine::TimeModelConfig;

TEST(TimeModelTest, TransferTermScalesWithBytes) {
  TimeModelConfig config;
  config.network_bandwidth_bytes_per_sec = 100e6;
  config.network_latency_sec = 0;
  SplitStageTotals totals;
  totals.bytes_moved = 200'000'000;  // 2 s at 100 MB/s
  EXPECT_NEAR(SplitStageSeconds(totals, config), 2.0, 1e-9);
  totals.bytes_moved *= 2;
  EXPECT_NEAR(SplitStageSeconds(totals, config), 4.0, 1e-9);
}

TEST(TimeModelTest, StageSumsTransferStorageComputeAndMedia) {
  TimeModelConfig config;
  config.network_bandwidth_bytes_per_sec = 100e6;
  config.network_latency_sec = 0;
  config.worker_threads = 1;
  config.storage_parallelism = 1;
  SplitStageTotals totals;
  totals.bytes_moved = 100'000'000;    // 1 s
  totals.storage_compute_seconds = 2;  // 2 s
  totals.compute_seconds = 3;          // 3 s
  totals.media_read_seconds = 4;       // 4 s
  EXPECT_NEAR(SplitStageSeconds(totals, config), 10.0, 1e-9);
}

TEST(TimeModelTest, ParallelismDividesComputeTerms) {
  TimeModelConfig config;
  config.network_latency_sec = 0;
  config.worker_threads = 8;
  config.storage_parallelism = 16;
  SplitStageTotals totals;
  totals.storage_compute_seconds = 16;
  totals.compute_seconds = 8;
  EXPECT_NEAR(SplitStageSeconds(totals, config), 16.0 / 16 + 8.0 / 8, 1e-9);
}

TEST(TimeModelTest, StorageNodesScaleMediaAndStorage) {
  TimeModelConfig config;
  config.network_latency_sec = 0;
  config.worker_threads = 1;
  config.storage_parallelism = 1;
  SplitStageTotals totals;
  totals.media_read_seconds = 6;
  totals.storage_compute_seconds = 3;
  config.storage_nodes = 1;
  EXPECT_NEAR(SplitStageSeconds(totals, config), 9.0, 1e-9);
  config.storage_nodes = 3;
  EXPECT_NEAR(SplitStageSeconds(totals, config), 3.0, 1e-9);
}

TEST(TimeModelTest, LatencyAmortizesOverParallelSplits) {
  TimeModelConfig config;
  config.network_latency_sec = 1e-3;
  config.worker_threads = 8;
  SplitStageTotals totals;
  totals.messages = 16;
  totals.splits = 8;  // 8 parallel workers
  EXPECT_NEAR(SplitStageSeconds(totals, config), 16 * 1e-3 / 8, 1e-12);
  totals.splits = 1;  // single split: no amortization
  EXPECT_NEAR(SplitStageSeconds(totals, config), 16 * 1e-3, 1e-12);
}

TEST(TimeModelTest, ZeroConfigIsSafe) {
  TimeModelConfig config;
  config.worker_threads = 0;
  config.storage_parallelism = 0;
  config.storage_nodes = 0;
  SplitStageTotals totals;
  totals.compute_seconds = 1;
  totals.storage_compute_seconds = 1;
  EXPECT_GT(SplitStageSeconds(totals, config), 0.0);  // no div-by-zero
}

// ---- workload generators ----------------------------------------------------

TEST(LaghosGeneratorTest, SchemaAndScale) {
  workloads::LaghosConfig config;
  config.num_files = 3;
  config.rows_per_file = 1000;
  auto data = workloads::GenerateLaghos(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->info.schema->num_fields(), 10u);  // paper: 10 columns
  EXPECT_EQ(data->info.row_count, 3000u);
  EXPECT_EQ(data->files.size(), 3u);
  EXPECT_EQ(data->info.objects.size(), 3u);
}

TEST(LaghosGeneratorTest, FilterSelectivityMatchesPaperTarget) {
  workloads::LaghosConfig config;
  config.num_files = 1;
  config.rows_per_file = 1 << 15;
  auto data = workloads::GenerateLaghos(config);
  ASSERT_TRUE(data.ok());
  auto reader = format::FileReader::Open(std::move(data->files[0].second));
  ASSERT_TRUE(reader.ok());
  auto table = (*reader)->ReadAll({1, 2, 3});  // x, y, z
  ASSERT_TRUE(table.ok());
  auto batch = (*table)->Combine();
  size_t pass = 0;
  for (size_t i = 0; i < batch->num_rows(); ++i) {
    double x = batch->column(0)->GetFloat64(i);
    double y = batch->column(1)->GetFloat64(i);
    double z = batch->column(2)->GetFloat64(i);
    if (x >= 0.8 && x <= 3.2 && y >= 0.8 && y <= 3.2 && z >= 0.8 && z <= 3.2) {
      ++pass;
    }
  }
  // Paper: filter keeps 5.1/24 ≈ 21%. Ours targets 0.6^3 = 21.6%.
  double rate = static_cast<double>(pass) / batch->num_rows();
  EXPECT_NEAR(rate, 0.216, 0.02);
}

TEST(LaghosGeneratorTest, VertexRangesAreSplitDisjoint) {
  workloads::LaghosConfig config;
  config.num_files = 4;
  config.rows_per_file = 1 << 10;
  auto data = workloads::GenerateLaghos(config);
  ASSERT_TRUE(data.ok());
  // The correctness contract for aggregation+top-N pushdown (DESIGN.md):
  // no vertex_id appears in two files.
  std::set<int64_t> seen;
  for (auto& [key, bytes] : data->files) {
    auto reader = format::FileReader::Open(std::move(bytes));
    ASSERT_TRUE(reader.ok());
    auto table = (*reader)->ReadAll({0});
    ASSERT_TRUE(table.ok());
    auto batch = (*table)->Combine();
    std::set<int64_t> file_ids;
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      file_ids.insert(batch->column(0)->GetInt64(i));
    }
    for (int64_t id : file_ids) {
      EXPECT_TRUE(seen.insert(id).second)
          << "vertex " << id << " spans files";
    }
  }
}

TEST(DeepWaterGeneratorTest, FilterSelectivityMatchesPaperTarget) {
  workloads::DeepWaterConfig config;
  config.num_files = 1;
  config.rows_per_file = 1 << 15;
  auto data = workloads::GenerateDeepWater(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->info.schema->num_fields(), 4u);  // paper: 4 columns
  auto reader = format::FileReader::Open(std::move(data->files[0].second));
  ASSERT_TRUE(reader.ok());
  auto table = (*reader)->ReadAll({1});  // v02
  ASSERT_TRUE(table.ok());
  auto batch = (*table)->Combine();
  size_t pass = 0;
  for (size_t i = 0; i < batch->num_rows(); ++i) {
    if (batch->column(0)->GetFloat64(i) > 0.1) ++pass;
  }
  // Paper: 5.37/30 ≈ 18%.
  double rate = static_cast<double>(pass) / batch->num_rows();
  EXPECT_NEAR(rate, 0.18, 0.02);
}

TEST(DeepWaterGeneratorTest, TimestepConstantPerFile) {
  workloads::DeepWaterConfig config;
  config.num_files = 3;
  config.rows_per_file = 512;
  auto data = workloads::GenerateDeepWater(config);
  ASSERT_TRUE(data.ok());
  for (size_t f = 0; f < data->files.size(); ++f) {
    auto reader = format::FileReader::Open(std::move(data->files[f].second));
    ASSERT_TRUE(reader.ok());
    auto table = (*reader)->ReadAll({2});
    ASSERT_TRUE(table.ok());
    auto batch = (*table)->Combine();
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      EXPECT_EQ(batch->column(0)->GetInt32(i), static_cast<int32_t>(f));
    }
  }
}

TEST(TpchGeneratorTest, Q1FilterKeepsAlmostEverything) {
  workloads::TpchConfig config;
  config.num_files = 1;
  config.rows_per_file = 1 << 15;
  auto data = workloads::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  auto reader = format::FileReader::Open(std::move(data->files[0].second));
  ASSERT_TRUE(reader.ok());
  int ship_idx = data->info.schema->FieldIndex("shipdate");
  auto table = (*reader)->ReadAll({ship_idx});
  ASSERT_TRUE(table.ok());
  auto batch = (*table)->Combine();
  const int32_t cutoff = columnar::DaysFromCivil(1998, 9, 2);
  size_t pass = 0;
  for (size_t i = 0; i < batch->num_rows(); ++i) {
    if (batch->column(0)->GetInt32(i) <= cutoff) ++pass;
  }
  // Paper: 99% (194 → 192 MB). dbgen yields ~98–99%.
  double rate = static_cast<double>(pass) / batch->num_rows();
  EXPECT_GT(rate, 0.97);
  EXPECT_LT(rate, 1.0);
}

TEST(TpchGeneratorTest, FourQ1Groups) {
  workloads::TpchConfig config;
  config.num_files = 1;
  config.rows_per_file = 1 << 14;
  auto data = workloads::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  auto reader = format::FileReader::Open(std::move(data->files[0].second));
  ASSERT_TRUE(reader.ok());
  int rf = data->info.schema->FieldIndex("returnflag");
  int ls = data->info.schema->FieldIndex("linestatus");
  auto table = (*reader)->ReadAll({rf, ls});
  ASSERT_TRUE(table.ok());
  auto batch = (*table)->Combine();
  std::set<std::string> groups;
  for (size_t i = 0; i < batch->num_rows(); ++i) {
    groups.insert(std::string(batch->column(0)->GetString(i)) + "|" +
                  std::string(batch->column(1)->GetString(i)));
  }
  // TPC-H Q1's four groups: A|F, N|F, N|O, R|F.
  EXPECT_EQ(groups, (std::set<std::string>{"A|F", "N|F", "N|O", "R|F"}));
}

TEST(TpchGeneratorTest, ColumnDomains) {
  workloads::TpchConfig config;
  config.num_files = 1;
  config.rows_per_file = 4096;
  auto data = workloads::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  const auto& stats = data->info.column_stats;
  const auto& schema = *data->info.schema;
  auto stat = [&](const char* name) -> const format::ColumnStats& {
    return stats[schema.FieldIndex(name)];
  };
  EXPECT_GE(stat("quantity").min.AsDouble(), 1.0);
  EXPECT_LE(stat("quantity").max.AsDouble(), 50.0);
  EXPECT_GE(stat("discount").min.AsDouble(), 0.0);
  EXPECT_LE(stat("discount").max.AsDouble(), 0.10 + 1e-9);
  EXPECT_LE(stat("tax").max.AsDouble(), 0.08 + 1e-9);
  EXPECT_EQ(stat("returnflag").ndv, 3u);
  EXPECT_EQ(stat("linestatus").ndv, 2u);
  // shipdate spans 1992..~1998-12-01 (dbgen: ENDDATE − 151 + 121).
  EXPECT_GE(stat("shipdate").min.AsInt64(), columnar::DaysFromCivil(1992, 1, 1));
  EXPECT_LE(stat("shipdate").max.AsInt64(), columnar::DaysFromCivil(1998, 12, 2));
}

}  // namespace
}  // namespace pocs
