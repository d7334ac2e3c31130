// Business OLAP scenario: TPC-H Query 1 (decision-support aggregation)
// over object storage, with the per-stage breakdown the paper reports in
// Table 3 and the full Q1 result table.
//
//   $ ./examples/tpch_olap
#include <cstdio>

#include "workloads/testbed.h"
#include "workloads/tpch.h"

using namespace pocs;

int main() {
  workloads::Testbed testbed;
  workloads::TpchConfig config;
  config.num_files = 4;
  config.rows_per_file = 1 << 15;
  auto data = workloads::GenerateLineitem(config);
  if (!data.ok() || !testbed.Ingest(std::move(*data)).ok()) {
    std::fprintf(stderr, "ingest failed\n");
    return 1;
  }

  std::string sql = workloads::TpchQ1();
  std::printf("TPC-H Q1:\n%s\n\n", sql.c_str());

  auto result = testbed.Run(sql, "ocs");
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // Q1 result (4 groups).
  const auto& table = *result->table;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    std::printf("%-16s", table.schema()->field(c).name.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      std::printf("%-16s", table.column(c)->GetDatum(r).ToString().c_str());
    }
    std::printf("\n");
  }

  // Table-3-style breakdown.
  const auto& m = result->metrics;
  struct Row {
    const char* stage;
    double seconds;
  } rows[] = {
      {"Logical Plan Analysis", m.logical_plan_analysis},
      {"Substrait IR Generation", m.ir_generation_seconds},
      {"Pushdown & Result Transfer", m.pushdown_and_transfer},
      {"Presto Execution (Post-Scan)", m.post_scan_execution},
      {"Others", m.others},
  };
  std::printf("\n%-30s %10s %8s\n", "Execution Stage", "Time (ms)", "Share");
  for (const Row& row : rows) {
    std::printf("%-30s %10.3f %7.2f%%\n", row.stage, row.seconds * 1e3,
                m.total > 0 ? 100.0 * row.seconds / m.total : 0.0);
  }
  std::printf("%-30s %10.3f %7s\n", "Total", m.total * 1e3, "100%");

  std::printf("\ndata movement: %.1f KB (vs %.1f MB stored)\n",
              m.bytes_from_storage / 1024.0,
              testbed.metastore().GetTable("default", "lineitem")->total_bytes /
                  (1024.0 * 1024.0));

  // Q6: the opposite filter regime (highly selective) — even filter-only
  // pushdown pays off, and the global aggregate returns a single number.
  std::string q6 = workloads::TpchQ6();
  std::printf("\nTPC-H Q6:\n%s\n\n", q6.c_str());
  for (const char* catalog : {"hive", "ocs"}) {
    auto r = testbed.Run(q6, catalog);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", catalog, r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s revenue=%-14.2f moved=%8.1f KB  time=%.4f s\n",
                catalog, r->table->column(0)->GetFloat64(0),
                r->metrics.bytes_from_storage / 1024.0, r->metrics.total);
  }
  return 0;
}
