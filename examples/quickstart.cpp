// Quickstart: stand up the full simulated stack — object storage with
// OCS, metastore, the minipresto engine with the Presto-OCS connector —
// load a small scientific dataset, and run one SQL query with full
// operator pushdown.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "workloads/laghos.h"
#include "workloads/testbed.h"

using namespace pocs;

int main() {
  // 1. Wire the testbed: compute node ↔ OCS frontend ↔ storage node over
  //    a simulated 10 GbE network (paper Table 1 defaults).
  workloads::Testbed testbed;

  // 2. Generate and ingest a Laghos-like dataset (4 Parquet-lite files).
  workloads::LaghosConfig config;
  config.num_files = 4;
  config.rows_per_file = 1 << 15;
  auto dataset = workloads::GenerateLaghos(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (auto st = testbed.Ingest(std::move(*dataset)); !st.ok()) {
    std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Run the paper's Laghos query through the Presto-OCS connector.
  std::string sql = workloads::LaghosQuery();
  std::printf("SQL: %s\n\n", sql.c_str());
  auto result = testbed.Run(sql, "ocs");
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("logical plan : %s\n", result->logical_plan.c_str());
  std::printf("after pushdown: %s\n\n", result->optimized_plan.c_str());

  // 4. Show the first rows of the result.
  const auto& table = *result->table;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    std::printf("%-14s", table.schema()->field(c).name.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < std::min<size_t>(table.num_rows(), 8); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      std::printf("%-14s", table.column(c)->GetDatum(r).ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("... (%zu rows total)\n\n", table.num_rows());

  // 5. Metrics: the two axes of the paper's evaluation.
  const auto& m = result->metrics;
  std::printf("data movement : %.1f KB from storage (%llu rows)\n",
              m.bytes_from_storage / 1024.0,
              static_cast<unsigned long long>(m.rows_returned));
  std::printf("simulated time: %.4f s (plan %.4f, IR %.4f, pushdown+transfer "
              "%.4f, post-scan %.4f)\n",
              m.total, m.logical_plan_analysis, m.ir_generation_seconds,
              m.pushdown_and_transfer, m.post_scan_execution);
  std::printf("pushdown      : ");
  for (const auto& d : m.pushdown_decisions) {
    std::printf("%s=%s ", connector::PushedOperatorKindName(d.kind).data(),
                d.accepted ? "yes" : "no");
  }
  std::printf("\n");
  return 0;
}
