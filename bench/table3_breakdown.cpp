// Table 3: breakdown of execution time for a single query on one Laghos
// file through the Presto-OCS connector.
//
// Paper: Logical Plan Analysis 0.06%, Substrait IR Generation 1.94%,
// Pushdown & Result Transfer 40.12%, Presto Execution (Post-Scan) 47.90%,
// Others 9.97%. Shape to reproduce: plan analysis + IR generation stay a
// negligible share (<2%) — the connector's own overhead is the claim.
#include <cstdio>

#include "bench/report.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"

using namespace pocs;

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  workloads::Testbed testbed;
  workloads::LaghosConfig config;
  config.seed = args.SeedOr(config.seed);
  config.num_files = 1;  // the paper measures a single Parquet file
  config.rows_per_file = (args.smoke ? (1 << 14) : (1 << 18)) * args.scale;
  auto data = workloads::GenerateLaghos(config);
  if (!data.ok() || !testbed.Ingest(std::move(*data)).ok()) {
    std::fprintf(stderr, "ingest failed\n");
    return 1;
  }

  // Warm-up run (excluded), then the measured run.
  (void)testbed.Run(workloads::LaghosQuery(), "ocs");
  auto result = testbed.Run(workloads::LaghosQuery(), "ocs");
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const auto& m = result->metrics;

  std::printf("=== Table 3: single-query execution-time breakdown ===\n\n");
  struct Row {
    const char* stage;
    double seconds;
    double paper_share;
  } rows[] = {
      {"Logical Plan Analysis", m.logical_plan_analysis, 0.06},
      {"Substrait IR Generation", m.ir_generation_seconds, 1.94},
      {"Pushdown & Result Transfer", m.pushdown_and_transfer, 40.12},
      {"Presto Execution (Post-Scan)", m.post_scan_execution, 47.90},
      {"Others", m.others, 9.97},
  };
  std::printf("%-30s %10s %9s %14s\n", "Execution Stage", "Time (ms)",
              "Share", "paper share");
  for (const Row& row : rows) {
    std::printf("%-30s %10.3f %8.2f%% %13.2f%%\n", row.stage,
                row.seconds * 1e3,
                m.total > 0 ? 100.0 * row.seconds / m.total : 0.0,
                row.paper_share);
  }
  std::printf("%-30s %10.3f %9s %14s\n", "Total", m.total * 1e3, "100%",
              "100%");

  double connector_overhead_pct =
      m.total > 0 ? 100.0 *
                        (m.logical_plan_analysis + m.ir_generation_seconds) /
                        m.total
                  : 0.0;
  std::printf("\nconnector overhead (plan analysis + IR generation): %.2f%% "
              "%s the paper's <2%% claim\n",
              connector_overhead_pct,
              connector_overhead_pct < 2.0 ? "— consistent with"
                                           : "— ABOVE");

  bench::BenchReport report("table3_breakdown", args);
  report.AddTiming("logical_plan_analysis_seconds", m.logical_plan_analysis);
  report.AddTiming("ir_generation_seconds", m.ir_generation_seconds);
  report.AddTiming("pushdown_and_transfer_seconds", m.pushdown_and_transfer);
  report.AddTiming("post_scan_execution_seconds", m.post_scan_execution);
  report.AddTiming("total_seconds", m.total);
  report.AddExact("bytes_from_storage",
                  static_cast<double>(m.bytes_from_storage), "bytes");
  report.AddExact("rows_scanned", static_cast<double>(m.rows_scanned),
                  "rows");
  return report.MaybeWriteJson() ? 0 : 1;
}
