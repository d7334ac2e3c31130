// HPC analytics scenario (the paper's motivating workload): a scientist
// interactively queries simulation snapshots stored in a disaggregated
// object store. The same query runs through the three access paths the
// paper compares —
//   hive_raw : no pushdown (whole files over the network),
//   hive     : S3-Select-style filter+projection pushdown,
//   ocs      : Presto-OCS full operator pushdown —
// and prints the movement/time comparison for both LANL-style datasets.
//
//   $ ./examples/hpc_analytics
#include <cstdio>

#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"

using namespace pocs;

namespace {

void RunComparison(workloads::Testbed& testbed, const char* title,
                   const std::string& sql) {
  std::printf("=== %s ===\n%s\n\n", title, sql.c_str());
  std::printf("%-10s %16s %14s %14s  %s\n", "path", "moved (KB)", "rows",
              "sim time (s)", "plan after local optimization");
  for (const char* catalog : {"hive_raw", "hive", "ocs"}) {
    auto result = testbed.Run(sql, catalog);
    if (!result.ok()) {
      std::printf("%-10s FAILED: %s\n", catalog,
                  result.status().ToString().c_str());
      continue;
    }
    const auto& m = result->metrics;
    std::printf("%-10s %16.1f %14llu %14.4f  %s\n", catalog,
                m.bytes_from_storage / 1024.0,
                static_cast<unsigned long long>(m.rows_returned), m.total,
                result->optimized_plan.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  workloads::Testbed testbed;

  workloads::LaghosConfig laghos;
  laghos.num_files = 8;
  laghos.rows_per_file = 1 << 15;
  auto laghos_data = workloads::GenerateLaghos(laghos);
  if (!laghos_data.ok() || !testbed.Ingest(std::move(*laghos_data)).ok()) {
    std::fprintf(stderr, "laghos ingest failed\n");
    return 1;
  }

  workloads::DeepWaterConfig deepwater;
  deepwater.num_files = 8;
  deepwater.rows_per_file = 1 << 15;
  auto dw_data = workloads::GenerateDeepWater(deepwater);
  if (!dw_data.ok() || !testbed.Ingest(std::move(*dw_data)).ok()) {
    std::fprintf(stderr, "deepwater ingest failed\n");
    return 1;
  }

  RunComparison(testbed, "Laghos: filter + GROUP BY vertex + top-100",
                workloads::LaghosQuery());
  RunComparison(testbed, "Deep Water Impact: filter + projection + GROUP BY",
                workloads::DeepWaterQuery());

  // Monitoring: the connector's sliding-window pushdown history.
  auto& history = testbed.history();
  std::printf("pushdown history (%zu queries tracked):\n",
              history.window_size());
  for (auto kind : {connector::PushedOperator::Kind::kFilter,
                    connector::PushedOperator::Kind::kProject,
                    connector::PushedOperator::Kind::kPartialAggregation,
                    connector::PushedOperator::Kind::kPartialTopN}) {
    auto stats = history.StatsFor(kind);
    if (stats.offered == 0) continue;
    std::printf("  %-12s offered %llu, accepted %llu (%.0f%%)\n",
                connector::PushedOperatorKindName(kind).data(),
                static_cast<unsigned long long>(stats.offered),
                static_cast<unsigned long long>(stats.accepted),
                100.0 * stats.accept_rate());
  }
  return 0;
}
