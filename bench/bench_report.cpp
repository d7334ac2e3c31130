// Unified bench driver for CI: runs a curated subset of the paper's
// experiments (Fig. 5 progressive pushdown on TPC-H Q1 and Laghos, the
// Table 3 stage breakdown, an S3-Select-path query, a warm-cache repeat
// scan through the connector split-result cache, a selective scan
// through the split-pruning metadata cache, and the multi-table join —
// dimension filter + fact scan + group-by — with and without the
// join-key bloom / storage-side partial aggregation, a dictionary-string
// filter exercising code-domain predicate evaluation plus late
// materialization, `micro_kernels` naive-vs-vectorized kernel
// comparisons, and each LZ codec's frame size, decoded-output hash and
// decode time) and emits one
// schema-versioned JSON report — BENCH_PR10.json by default — that
// tools/check_bench.py diffs against a committed baseline.
//
// `--smoke` shrinks every dataset to CI size (seconds, not minutes);
// the default seeds are the workloads' fixed ones, so two runs of the
// same binary on the same tree produce identical "exact" metrics.
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/fig5_common.h"
#include "bench/report.h"
#include "columnar/kernels.h"
#include "common/checksum.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "compress/codec.h"
#include "format/encoding.h"
#include "workloads/chaos.h"
#include "workloads/concurrent.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

// Sanitizer instrumentation skews the naive-vs-kernel ratios, so the
// micro_kernels speedup floors are enforced only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define POCS_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define POCS_BENCH_SANITIZED 1
#endif
#endif
#ifndef POCS_BENCH_SANITIZED
#define POCS_BENCH_SANITIZED 0
#endif

using namespace pocs;

namespace {

// Order-insensitive 32-bit result fingerprint: rows canonicalized
// (%.9g doubles), sorted, FNV-1a hashed and folded. Used to assert the
// pushed join plan returns exactly the engine-only plan's answer.
uint32_t ResultFingerprint(const columnar::RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      if (c) row += "|";
      const auto& col = *batch.column(c);
      if (col.IsNull(r)) {
        row += "NULL";
      } else if (col.type() == columnar::TypeKind::kFloat64) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", col.GetFloat64(r));
        row += buf;
      } else {
        row += col.GetDatum(r).ToString();
      }
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& row : rows) {
    for (char ch : row) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
    h ^= '\n';
    h *= 0x100000001b3ull;
  }
  return static_cast<uint32_t>((h ^ (h >> 32)) & 0xffffffffull);
}

// --- micro_kernels naive references ------------------------------------
// Faithful replicas of the pre-vectorization scalar kernels: a per-row
// loop with the comparison op resolved by a switch inside the loop and
// matches collected via push_back. The vectorized kernels must beat
// these by the margins DESIGN.md §15 records (≥2x int64 filter, ≥3x
// dictionary-string filter).

bool NaiveOpTest(columnar::CompareOp op, int cmp) {
  switch (op) {
    case columnar::CompareOp::kEq: return cmp == 0;
    case columnar::CompareOp::kNe: return cmp != 0;
    case columnar::CompareOp::kLt: return cmp < 0;
    case columnar::CompareOp::kLe: return cmp <= 0;
    case columnar::CompareOp::kGt: return cmp > 0;
    case columnar::CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

columnar::SelectionVector NaiveFilterInt64(const columnar::Column& col,
                                           columnar::CompareOp op,
                                           int64_t lit) {
  columnar::SelectionVector out;
  out.reserve(col.length());
  const bool nulls = col.has_nulls();
  for (uint32_t i = 0; i < col.length(); ++i) {
    if (nulls && col.IsNull(i)) continue;
    const int64_t v = col.GetInt64(i);
    if (NaiveOpTest(op, v < lit ? -1 : (v > lit ? 1 : 0))) out.push_back(i);
  }
  return out;
}

columnar::SelectionVector NaiveFilterString(const columnar::Column& col,
                                            columnar::CompareOp op,
                                            std::string_view lit) {
  columnar::SelectionVector out;
  out.reserve(col.length());
  const bool nulls = col.has_nulls();
  for (uint32_t i = 0; i < col.length(); ++i) {
    if (nulls && col.IsNull(i)) continue;
    const int cmp = col.GetString(i).compare(lit);
    if (NaiveOpTest(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0))) out.push_back(i);
  }
  return out;
}

columnar::ColumnPtr NaiveGather(const columnar::Column& col,
                                const columnar::SelectionVector& sel) {
  auto out = columnar::MakeColumn(col.type());
  for (uint32_t i : sel) out->AppendFrom(col, i);
  return out;
}

// Best wall time over `reps` runs of `fn` (returns a checksum folded
// into *sink so the work cannot be optimized away).
template <typename Fn>
double BestSeconds(int reps, uint64_t* sink, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    *sink += fn();
    const double s = sw.ElapsedSeconds();
    if (s < best) best = s;
  }
  return best;
}

// Runs one catalog and appends the per-query metrics under `prefix.`.
// Returns false (after printing the error) when the query fails.
bool RunAndRecord(workloads::Testbed& testbed, const std::string& sql,
                  const std::string& catalog, const std::string& prefix,
                  bench::BenchReport* report,
                  engine::QueryResult* out = nullptr) {
  auto result = testbed.Run(sql, catalog);
  if (!result.ok()) {
    std::fprintf(stderr, "bench_report: %s via %s failed: %s\n", sql.c_str(),
                 catalog.c_str(), result.status().ToString().c_str());
    return false;
  }
  const engine::QueryMetrics& m = result->metrics;
  report->AddExact(prefix + ".bytes_moved",
                   static_cast<double>(m.bytes_from_storage), "bytes");
  report->AddExact(prefix + ".rows_scanned",
                   static_cast<double>(m.rows_scanned), "rows");
  report->AddExact(prefix + ".result_rows",
                   static_cast<double>(result->table->num_rows()), "rows");
  report->AddExact(prefix + ".splits", static_cast<double>(m.splits));
  report->AddExact(prefix + ".splits_planned",
                   static_cast<double>(m.splits_planned));
  report->AddExact(prefix + ".splits_pruned",
                   static_cast<double>(m.splits_pruned));
  report->AddExact(prefix + ".row_groups_skipped",
                   static_cast<double>(m.row_groups_skipped));
  report->AddExact(prefix + ".cache_hits",
                   static_cast<double>(m.cache_hits));
  report->AddExact(prefix + ".cache_bytes_saved",
                   static_cast<double>(m.cache_bytes_saved), "bytes");
  report->AddExact(prefix + ".bytes_refetched_on_retry",
                   static_cast<double>(m.bytes_refetched_on_retry), "bytes");
  report->AddExact(prefix + ".pushdown.bloom_pushed",
                   static_cast<double>(m.bloom_pushed));
  report->AddExact(prefix + ".pushdown.bloom_rows_pruned",
                   static_cast<double>(m.bloom_rows_pruned), "rows");
  report->AddExact(prefix + ".pushdown.partial_agg_accepted",
                   static_cast<double>(m.partial_agg_accepted));
  report->AddExact(prefix + ".pushdown.partial_agg_merges",
                   static_cast<double>(m.partial_agg_merges), "rows");
  report->AddTiming(prefix + ".sim_seconds", m.total);
  std::printf("%-28s %14.4f s %12.1f KB moved\n", prefix.c_str(), m.total,
              m.bytes_from_storage / 1024.0);
  if (out) *out = std::move(*result);
  return true;
}

bool RunProgressive(workloads::Testbed& testbed, const std::string& sql,
                    const std::vector<bench::Fig5Step>& steps,
                    const std::string& dataset, bench::BenchReport* report) {
  for (const bench::Fig5Step& step : steps) {
    if (!RunAndRecord(testbed, sql, step.catalog,
                      dataset + "." + bench::StepSlug(step.label), report)) {
      return false;
    }
  }
  return true;
}

// Query-completion totals the EventListener collected for this testbed.
void RecordCollectorTotals(workloads::Testbed& testbed,
                           const std::string& prefix,
                           bench::BenchReport* report) {
  const auto totals = testbed.stats().totals();
  report->AddExact(prefix + ".queries", static_cast<double>(totals.queries));
  report->AddExact(prefix + ".rows_scanned",
                   static_cast<double>(totals.rows_scanned), "rows");
  report->AddExact(prefix + ".rows_returned",
                   static_cast<double>(totals.rows_returned), "rows");
  report->AddExact(prefix + ".bytes_moved",
                   static_cast<double>(totals.bytes_moved()), "bytes");
  report->AddExact(prefix + ".pushdown_accepted",
                   static_cast<double>(totals.pushdown_accepted));
  report->AddExact(prefix + ".pushdown_rejected",
                   static_cast<double>(totals.pushdown_rejected));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.json_path.empty()) args.json_path = "BENCH_PR10.json";
  const size_t rows_per_file =
      (args.smoke ? (1 << 12) : (1 << 16)) * args.scale;

  Stopwatch wall;
  bench::BenchReport report("bench_report", args);

  // --- Fig. 5(c): TPC-H Q1 progressive pushdown --------------------------
  {
    workloads::Testbed testbed;
    workloads::TpchConfig config;
    config.seed = args.SeedOr(config.seed);
    config.num_files = args.smoke ? 2 : 4;
    config.rows_per_file = rows_per_file;
    auto data = workloads::GenerateLineitem(config);
    if (!data.ok() || !testbed.Ingest(std::move(*data)).ok()) {
      std::fprintf(stderr, "bench_report: tpch ingest failed\n");
      return 1;
    }
    auto steps = bench::ProgressiveSteps(testbed, /*with_project=*/true,
                                         /*with_topn=*/false);
    if (!RunProgressive(testbed, workloads::TpchQ1(), steps, "tpch",
                        &report)) {
      return 1;
    }
    // S3-Select path on the same data: covers the Hive connector's
    // Select request/CSV decode machinery in the smoke run.
    if (!RunAndRecord(testbed, workloads::TpchQ1(), "hive", "tpch.s3select",
                      &report)) {
      return 1;
    }

    // --- Multi-table join: bloom semi-join + storage partial agg ---------
    // The same join twice: "ocs_join_engine" disables the join-key bloom
    // and aggregation pushdown (engine-side single plan), "ocs" takes
    // both. The pushed run must return the identical answer while moving
    // strictly fewer bytes (DESIGN.md §14).
    {
      auto dim = workloads::GenerateSupplier(workloads::SupplierConfig{});
      if (!dim.ok() || !testbed.Ingest(std::move(*dim)).ok()) {
        std::fprintf(stderr, "bench_report: supplier ingest failed\n");
        return 1;
      }
      connectors::OcsConnectorConfig engine_only;
      engine_only.pushdown_aggregation = false;
      engine_only.pushdown_join_bloom = false;
      testbed.RegisterOcsCatalog("ocs_join_engine", engine_only);
      const std::string join_sql = workloads::TpchJoinQuery();
      engine::QueryResult ref;
      engine::QueryResult pushed;
      if (!RunAndRecord(testbed, join_sql, "ocs_join_engine", "tpch.join",
                        &report, &ref) ||
          !RunAndRecord(testbed, join_sql, "ocs", "tpch.join_pushdown",
                        &report, &pushed)) {
        return 1;
      }
      const uint32_t ref_fp = ResultFingerprint(*ref.table);
      const uint32_t pushed_fp = ResultFingerprint(*pushed.table);
      report.AddExact("tpch.join.result_fingerprint",
                      static_cast<double>(ref_fp));
      report.AddExact("tpch.join_pushdown.result_fingerprint",
                      static_cast<double>(pushed_fp));
      if (pushed_fp != ref_fp) {
        std::fprintf(stderr,
                     "bench_report: pushed join answer diverged from the "
                     "engine-only plan (%u vs %u)\n",
                     pushed_fp, ref_fp);
        return 1;
      }
      if (pushed.metrics.bytes_from_storage >= ref.metrics.bytes_from_storage) {
        std::fprintf(stderr,
                     "bench_report: pushed join moved %llu bytes, engine-only "
                     "moved %llu — pushdown must move strictly fewer\n",
                     static_cast<unsigned long long>(
                         pushed.metrics.bytes_from_storage),
                     static_cast<unsigned long long>(
                         ref.metrics.bytes_from_storage));
        return 1;
      }
    }
    RecordCollectorTotals(testbed, "tpch.listener", &report);
  }

  // --- Dictionary code-domain filter + late materialization --------------
  // The same string-predicate scan twice on a fresh testbed: "ocs"
  // pushes the filter first — on a cold row-group cache the storage node
  // sees the encoded returnflag pages, evaluates the string conjunct in
  // the dictionary code domain, and materializes only the surviving
  // rows' strings (DESIGN.md §15) — then "ocs_scan_engine" disables
  // filter pushdown so full pages decode and the engine filters. The
  // pushed run must return the identical answer; its rows_dict_filtered /
  // rows_late_materialized counters feed the CI nonzero gates. The
  // testbed is fresh because a warm row-group cache legitimately
  // short-circuits the dict path (a cached chunk is already decoded).
  {
    workloads::Testbed testbed;
    workloads::TpchConfig config;
    config.seed = args.SeedOr(config.seed);
    config.num_files = args.smoke ? 2 : 4;
    config.rows_per_file = rows_per_file;
    auto data = workloads::GenerateLineitem(config);
    if (!data.ok() || !testbed.Ingest(std::move(*data)).ok()) {
      std::fprintf(stderr, "bench_report: dict tpch ingest failed\n");
      return 1;
    }
    connectors::OcsConnectorConfig scan_engine;
    scan_engine.pushdown_filter = false;
    scan_engine.pushdown_projection = false;
    scan_engine.pushdown_aggregation = false;
    testbed.RegisterOcsCatalog("ocs_scan_engine", scan_engine);
    const std::string dict_sql = workloads::TpchDictFilterQuery();
    engine::QueryResult ref;
    engine::QueryResult pushed;
    if (!RunAndRecord(testbed, dict_sql, "ocs", "dict.pushed", &report,
                      &pushed) ||
        !RunAndRecord(testbed, dict_sql, "ocs_scan_engine",
                      "dict.scan_engine", &report, &ref)) {
      return 1;
    }
    const uint32_t ref_fp = ResultFingerprint(*ref.table);
    const uint32_t pushed_fp = ResultFingerprint(*pushed.table);
    report.AddExact("dict.scan_engine.result_fingerprint",
                    static_cast<double>(ref_fp));
    report.AddExact("dict.pushed.result_fingerprint",
                    static_cast<double>(pushed_fp));
    if (pushed_fp != ref_fp) {
      std::fprintf(stderr,
                   "bench_report: dict-filtered answer diverged from the "
                   "engine-side plan (%u vs %u)\n",
                   pushed_fp, ref_fp);
      return 1;
    }
    if (pushed.metrics.rows_dict_filtered == 0 ||
        pushed.metrics.rows_late_materialized == 0) {
      std::fprintf(stderr,
                   "bench_report: pushed dict scan reported "
                   "rows_dict_filtered=%llu rows_late_materialized=%llu — "
                   "both must be nonzero\n",
                   static_cast<unsigned long long>(
                       pushed.metrics.rows_dict_filtered),
                   static_cast<unsigned long long>(
                       pushed.metrics.rows_late_materialized));
      return 1;
    }
    report.AddExact("dict.pushed.rows_dict_filtered",
                    static_cast<double>(pushed.metrics.rows_dict_filtered),
                    "rows");
    report.AddExact(
        "dict.pushed.rows_late_materialized",
        static_cast<double>(pushed.metrics.rows_late_materialized), "rows");
  }

  // --- Fig. 5(a): Laghos progressive pushdown (incl. topN) ---------------
  {
    workloads::Testbed testbed;
    workloads::LaghosConfig config;
    config.seed = args.SeedOr(config.seed);
    config.num_files = args.smoke ? 2 : 4;
    config.rows_per_file = rows_per_file;
    auto data = workloads::GenerateLaghos(config);
    if (!data.ok() || !testbed.Ingest(std::move(*data)).ok()) {
      std::fprintf(stderr, "bench_report: laghos ingest failed\n");
      return 1;
    }
    auto steps = bench::ProgressiveSteps(testbed, /*with_project=*/false,
                                         /*with_topn=*/true);
    if (!RunProgressive(testbed, workloads::LaghosQuery(), steps, "laghos",
                        &report)) {
      return 1;
    }
    RecordCollectorTotals(testbed, "laghos.listener", &report);

    // --- Repeat scan through the split-result cache ----------------------
    // Filter-only pushdown so the cold run moves real data; the warm
    // repeat revalidates object versions with metadata-only Stat calls
    // and replays the cached decoded splits — cache_hits covers every
    // split and cache_bytes_saved equals the cold run's data movement.
    {
      connectors::OcsConnectorConfig cached;
      cached.pushdown_projection = false;
      cached.pushdown_aggregation = false;
      cached.pushdown_topn = false;
      cached.split_result_cache_bytes = 64ull << 20;
      testbed.RegisterOcsCatalog("ocs_cached", cached);
      if (!RunAndRecord(testbed, workloads::LaghosQuery(), "ocs_cached",
                        "laghos.cached_cold", &report) ||
          !RunAndRecord(testbed, workloads::LaghosQuery(), "ocs_cached",
                        "laghos.cached_warm", &report)) {
        return 1;
      }
    }

    // --- Selective scan through the split-pruning metadata cache ---------
    // vertex ranges are disjoint per file, so a vertex_id prefix bound
    // proves trailing files empty from cached footer stats: the cold run
    // pays one DescribeObject per object and prunes their splits before
    // any data RPC (splits_pruned > 0); the warm repeat revalidates each
    // descriptor with a metadata-only Stat (metadata_cache.hit > 0).
    {
      connectors::OcsConnectorConfig pruning;
      pruning.metadata_cache_bytes = 8ull << 20;
      testbed.RegisterOcsCatalog("ocs_pruned", pruning);
      const size_t vertices_per_file =
          config.rows_per_file / config.rows_per_vertex;
      const std::string selective = workloads::LaghosSelectiveQuery(
          "laghos", static_cast<int64_t>(vertices_per_file));
      if (!RunAndRecord(testbed, selective, "ocs_pruned", "laghos.selective",
                        &report) ||
          !RunAndRecord(testbed, selective, "ocs_pruned",
                        "laghos.selective_warm", &report)) {
        return 1;
      }
    }

    // --- Table 3 stage breakdown on the last testbed ---------------------
    auto result = testbed.Run(workloads::LaghosQuery(), "ocs");
    if (!result.ok()) {
      std::fprintf(stderr, "bench_report: breakdown query failed\n");
      return 1;
    }
    const engine::QueryMetrics& m = result->metrics;
    report.AddTiming("breakdown.logical_plan_analysis_seconds",
                     m.logical_plan_analysis);
    report.AddTiming("breakdown.ir_generation_seconds",
                     m.ir_generation_seconds);
    report.AddTiming("breakdown.pushdown_and_transfer_seconds",
                     m.pushdown_and_transfer);
    report.AddTiming("breakdown.post_scan_execution_seconds",
                     m.post_scan_execution);
    report.AddTiming("breakdown.total_seconds", m.total);
  }

  // --- Concurrent multi-tenant workload (DESIGN.md §12) ------------------
  // N seeded queries across the three standard tenants, under admission
  // control and load-aware dispatch. Accept/reject outcomes, per-tenant
  // arrival counts, result rows/fingerprint, and per-node routed-plan
  // counts are pure functions of the schedule → exact; latency quantiles
  // are wall-clock → timings.
  {
    workloads::ConcurrentWorkloadConfig config;
    config.seed = args.SeedOr(config.seed);
    config.num_queries = args.smoke ? 24 : 48;
    workloads::Testbed testbed(workloads::MakeConcurrentTestbedConfig(config));
    if (!workloads::IngestChaosDatasets(&testbed).ok()) {
      std::fprintf(stderr, "bench_report: concurrent ingest failed\n");
      return 1;
    }
    auto run = workloads::RunConcurrentWorkload(&testbed, config);
    if (!run.ok()) {
      std::fprintf(stderr, "bench_report: concurrent workload failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    report.AddExact("concurrent.admission.queued",
                    static_cast<double>(run->admission_queued));
    report.AddExact("concurrent.admission.admitted",
                    static_cast<double>(run->admission_admitted));
    report.AddExact("concurrent.admission.rejected",
                    static_cast<double>(run->admission_rejected));
    report.AddExact("concurrent.rows_total",
                    static_cast<double>(run->rows_total), "rows");
    // 64-bit fingerprint folded to 32 bits so it survives the JSON
    // double round-trip losslessly.
    const uint64_t fp = run->result_fingerprint;
    report.AddExact("concurrent.result_fingerprint",
                    static_cast<double>((fp ^ (fp >> 32)) & 0xffffffffull));
    for (size_t i = 0; i < run->node_plans.size(); ++i) {
      report.AddExact("concurrent.dispatch.node" + std::to_string(i) +
                          ".plans",
                      static_cast<double>(run->node_plans[i]));
    }
    report.AddExact("concurrent.dispatch.max_node_plans",
                    static_cast<double>(run->max_node_plans));
    report.AddExact("concurrent.dispatch.load_skew",
                    static_cast<double>(run->max_node_plans -
                                        run->min_node_plans));
    for (const workloads::TenantReport& t : run->tenants) {
      const std::string prefix = "concurrent.tenant." + t.tenant;
      report.AddExact(prefix + ".queries", static_cast<double>(t.queries));
      report.AddExact(prefix + ".admitted", static_cast<double>(t.admitted));
      report.AddExact(prefix + ".rejected", static_cast<double>(t.rejected));
      report.AddTiming(prefix + ".p50_seconds", t.p50_seconds);
      report.AddTiming(prefix + ".p95_seconds", t.p95_seconds);
      report.AddTiming(prefix + ".p99_seconds", t.p99_seconds);
      report.AddTiming(prefix + ".queue_wait_p95_seconds",
                       t.queue_wait_p95_seconds);
      std::printf("%-28s %14.4f s p95 %10llu admitted\n", prefix.c_str(),
                  t.p95_seconds,
                  static_cast<unsigned long long>(t.admitted));
    }
  }

  // --- micro_kernels: vectorized kernels vs the pre-PR scalar loops ------
  // Seeded data, best-of-N wall time per variant. Per-variant seconds
  // and the naive/kernel speedup are recorded as timings (the 11x
  // baseline tolerance absorbs machine variance); the speedup floors
  // (DESIGN.md §15: ≥2x int64 filter, ≥3x dictionary-string filter;
  // §16: ≥4x checksum) are enforced here in optimized builds so a kernel
  // regression fails the bench run itself, not just the baseline diff.
  {
    const size_t n = args.smoke ? (1u << 19) : (1u << 21);
    const int reps = 5;
    std::mt19937_64 rng(args.SeedOr(20260807));
    uint64_t sink = 0;

    auto ints = columnar::MakeColumn(columnar::TypeKind::kInt64);
    ints->Reserve(n);
    std::uniform_int_distribution<int64_t> int_dist(0, 999);
    for (size_t i = 0; i < n; ++i) ints->AppendInt64(int_dist(rng));
    const columnar::Datum int_lit = columnar::Datum::Int64(500);

    const char* flags[] = {"R", "A", "N"};
    auto strs = columnar::MakeColumn(columnar::TypeKind::kString);
    strs->Reserve(n);
    for (size_t i = 0; i < n; ++i) strs->AppendString(flags[rng() % 3]);
    const columnar::Field str_field{"flag", columnar::TypeKind::kString};
    const Bytes str_page = format::EncodePage(*strs, str_field);
    auto dict = format::DecodeDictionaryPage(str_page, str_field, n);
    if (!dict.ok() || !dict->has_value()) {
      std::fprintf(stderr, "bench_report: micro_kernels dictionary page "
                           "unexpectedly plain\n");
      return 1;
    }

    struct MicroResult {
      const char* name;
      double naive_seconds;
      double kernel_seconds;
      double floor;  // minimum naive/kernel speedup; 0 = none
      size_t items;  // per pass, in millions of `unit`
      const char* unit;
    };
    std::vector<MicroResult> micro;

    // int64 filter: per-row switch + push_back vs branch-free
    // compress-store over the raw buffer.
    {
      const double naive = BestSeconds(reps, &sink, [&] {
        return NaiveFilterInt64(*ints, columnar::CompareOp::kLt, 500).size();
      });
      const double kernel = BestSeconds(reps, &sink, [&] {
        return columnar::CompareScalar(*ints, columnar::CompareOp::kLt,
                                       int_lit)
            .size();
      });
      micro.push_back({"int64_filter", naive, kernel, 2.0, n, "Mrows/s"});
    }

    // Dictionary-string filter: per-row string compares over the decoded
    // column (the pre-PR scan evaluated string predicates only after full
    // materialization) vs one compare per distinct value + a byte-table
    // pass over the codes. Materialization is deliberately outside both
    // timings — the late-materialization saving is tracked separately by
    // the dict.pushed.rows_late_materialized metric.
    {
      auto materialized = format::MaterializeDictionary(**dict);
      const double naive = BestSeconds(reps, &sink, [&] {
        return NaiveFilterString(*materialized, columnar::CompareOp::kEq, "R")
            .size();
      });
      const double kernel = BestSeconds(reps, &sink, [&] {
        const std::vector<uint8_t> match = format::TranslateDictPredicate(
            **dict, columnar::CompareOp::kEq,
            columnar::Datum::String("R"));
        return format::FilterDictCodes(**dict, match).size();
      });
      micro.push_back({"dict_string_filter", naive, kernel, 3.0, n, "Mrows/s"});
    }

    // String gather: per-row AppendFrom vs bulk offset/char gather.
    {
      columnar::SelectionVector sel;
      for (uint32_t i = 0; i < n; i += 3) sel.push_back(i);
      const double naive = BestSeconds(reps, &sink, [&] {
        return NaiveGather(*strs, sel)->length();
      });
      const double kernel = BestSeconds(reps, &sink, [&] {
        return columnar::Take(*strs, sel)->length();
      });
      micro.push_back({"take_string", naive, kernel, 0.0, n, "Mrows/s"});
    }

    // Integrity checksum: the serial HashBytes that IPC streams and
    // Parquet-lite pages were hashed with vs the 4-lane Checksum64 that
    // replaced it, over a buffer the size of a large filtered result.
    {
      Bytes buffer(2600000);
      for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng());
      const double naive = BestSeconds(reps, &sink, [&] {
        return HashBytes(buffer.data(), buffer.size());
      });
      const double kernel =
          BestSeconds(reps, &sink, [&] { return Checksum64(buffer); });
      micro.push_back({"checksum", naive, kernel, 4.0, buffer.size(), "MB/s"});
    }

    // Row hashing has no pre-PR per-row counterpart to race (the old
    // code hashed Datum copies inside the aggregator); record absolute
    // throughput only.
    {
      std::vector<uint64_t> hashes;
      const double s = BestSeconds(reps, &sink, [&] {
        columnar::HashRows({ints, strs}, &hashes);
        return hashes.empty() ? 0u : static_cast<uint32_t>(hashes[0]);
      });
      report.AddTiming("micro_kernels.hash_rows.kernel_seconds", s);
      std::printf("micro_kernels.hash_rows      %11.1f Mrows/s\n",
                  n / s / 1e6);
    }

    for (const MicroResult& m : micro) {
      const double speedup = m.naive_seconds / m.kernel_seconds;
      const std::string prefix = std::string("micro_kernels.") + m.name;
      report.AddTiming(prefix + ".naive_seconds", m.naive_seconds);
      report.AddTiming(prefix + ".kernel_seconds", m.kernel_seconds);
      report.AddTiming(prefix + ".speedup", speedup);
      std::printf("%-28s %11.1f %s naive %9.1f %s kernel (%.1fx)\n",
                  prefix.c_str(), m.items / m.naive_seconds / 1e6, m.unit,
                  m.items / m.kernel_seconds / 1e6, m.unit, speedup);
      if (!POCS_BENCH_SANITIZED && speedup < m.floor) {
        std::fprintf(stderr,
                     "bench_report: %s speedup %.2fx is below its %.0fx "
                     "floor\n",
                     prefix.c_str(), speedup, m.floor);
        return 1;
      }
    }
    if (sink == 0xdeadbeef) std::printf("sink %llu\n",
                                        (unsigned long long)sink);
  }

  // --- codecs: pin each LZ codec's frame bytes and decoded output ---------
  // One seeded column-shaped payload (float-widened doubles from a random
  // walk, near-sequential int64 ids, small dictionary codes) through each
  // LZ codec. The compressed size pins the encoder, the decoded hash pins
  // the decoder; the timing tracks decode speed.
  {
    const size_t n = args.smoke ? (1u << 13) : (1u << 16);
    std::mt19937_64 rng(args.SeedOr(20261017));
    Bytes payload;
    auto append = [&payload](const auto& value) {
      const auto* p = reinterpret_cast<const uint8_t*>(&value);
      payload.insert(payload.end(), p, p + sizeof(value));
    };
    double level = 0.5;
    for (size_t i = 0; i < n; ++i) {
      level += (static_cast<int64_t>(rng() % 2001) - 1000) * 1e-6;
      append(static_cast<double>(static_cast<float>(level)));
    }
    for (size_t i = 0; i < n; ++i) {
      append(static_cast<int64_t>(1000000 + 2 * i + rng() % 2));
    }
    for (size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<uint8_t>(rng() % 5));
    }
    for (compress::CodecType type :
         {compress::CodecType::kFastLz, compress::CodecType::kDeflateLite,
          compress::CodecType::kZsLite}) {
      const compress::Codec& codec = compress::GetCodec(type);
      const std::string prefix =
          "codecs." + std::string(compress::CodecName(type));
      const Bytes frame = codec.Compress(payload);
      Result<Bytes> decoded = codec.Decompress(frame);
      if (!decoded.ok() || *decoded != payload) {
        std::fprintf(stderr, "bench_report: %s does not round-trip: %s\n",
                     prefix.c_str(),
                     decoded.ok() ? "wrong bytes"
                                  : decoded.status().ToString().c_str());
        return 1;
      }
      const uint64_t hash = HashBytes(decoded->data(), decoded->size());
      uint64_t sink = 0;
      const double seconds = BestSeconds(5, &sink, [&] {
        const Result<Bytes> out = codec.Decompress(frame);
        return out.ok() ? out->size() : 0;
      });
      report.AddExact(prefix + ".compressed_bytes",
                      static_cast<double>(frame.size()), "bytes");
      report.AddExact(prefix + ".decoded_hash",
                      static_cast<uint32_t>(hash ^ (hash >> 32)));
      report.AddTiming(prefix + ".decompress_seconds", seconds);
      std::printf("%-28s %11zu bytes %9.1f MB/s decode\n", prefix.c_str(),
                  frame.size(), payload.size() / seconds / 1e6);
    }
  }

  // --- Process-wide registry rollup --------------------------------------
  // Counters are order-independent sums over fixed-seed workloads →
  // exact. Histograms carry wall time → only their populations are
  // exact; means are reported as timings.
  for (const metrics::MetricSample& s :
       metrics::Registry::Default().Snapshot()) {
    switch (s.kind) {
      case metrics::MetricKind::kCounter:
        report.AddExact("process." + s.name, s.value);
        break;
      case metrics::MetricKind::kGauge:
        break;  // gauges are instantaneous, not comparable across runs
      case metrics::MetricKind::kHistogram:
        report.AddExact("process." + s.name + ".count", s.value);
        if (s.value > 0) {
          report.AddTiming("process." + s.name + ".mean_seconds", s.mean);
        }
        break;
    }
  }

  report.AddTiming("driver.wall_seconds", wall.ElapsedSeconds());
  if (!report.WriteJson(args.json_path)) return 1;
  return 0;
}
