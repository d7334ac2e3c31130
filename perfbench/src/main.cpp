// The repository benchmark: closed-loop query workloads over the in-process
// testbed, end-to-end metrics with tracing off, and a traced run that
// attributes each query's time to the layers it crosses.
//
//   pocs_perfbench --workload <pushdown_cold|filter_warm|mixed_rw>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--inject-wrong-answer]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any answer differs from the no-pushdown reference or any
// operation fails. perfbench/run.py builds this binary and runs it.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif
#ifdef __OPTIMIZE__
#define PERFBENCH_OPTIMIZED 1
#else
#define PERFBENCH_OPTIMIZED 0
#endif

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
  bool inject_wrong_answer = false;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: pocs_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--inject-wrong-answer]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--inject-wrong-answer") {
      args.inject_wrong_answer = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace is 0 or 1");
  return args;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void AppendJsonMetrics(std::string* out, const std::vector<Metric>& metrics) {
  char buf[512];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    *out += buf;
  }
}

std::string JsonEnv(const Report& report) {
  std::string out = "{";
  for (size_t i = 0; i < report.env.size(); ++i) {
    out += (i ? ", \"" : "\"") + report.env[i].first + "\": \"" +
           report.env[i].second + "\"";
  }
  return out + "}";
}

// Per-layer metrics from the traced phase. `untraced` is the phase run
// just before it with tracing off.
std::vector<Metric> LayerMetrics(const LoopStats& untraced,
                                 double untraced_p50, CacheCounts rowgroup,
                                 CacheCounts split_cache,
                                 const TraceResult& traced,
                                 const std::map<std::string, LayerTime>& layers,
                                 std::map<std::string, double>* self_per_query) {
  const double queries = static_cast<double>(traced.loop.latency_s.size());
  const ReplayCounts& c = traced.counts;
  auto layer = [&](const char* name) -> const LayerTime& {
    static const LayerTime kNone;
    auto it = layers.find(name);
    return it == layers.end() ? kNone : it->second;
  };
  auto per_query = [&](double v) { return Ratio(v, queries); };
  auto self = [&](const char* name) { return per_query(layer(name).self_s); };

  // Query-side layers: every non-excluded span except the write path's.
  static const char* kWriteLayers[] = {"format.write", "objectstore.put",
                                       "format.encode", "compress.compress"};
  double replayed = 0;
  for (const auto& [name, t] : layers) {
    if (std::find(std::begin(kWriteLayers), std::end(kWriteLayers), name) !=
        std::end(kWriteLayers)) {
      continue;
    }
    replayed += t.self_s;
    (*self_per_query)[name] = per_query(t.self_s);
  }
  replayed = per_query(replayed);
  const double execute = Mean(traced.loop.latency_s);
  const double post_scan = per_query(traced.loop.post_scan_s);
  (*self_per_query)["engine.self"] = execute - replayed;

  const double puts = static_cast<double>(layer("objectstore.put").spans);
  const double completed = static_cast<double>(untraced.latency_s.size());
  const double decompress_s = layer("compress.decompress").self_s;
  const double traced_p50 = Quantile(traced.loop.latency_s, 0.5);

  return {
      {"sql.parse_s", self("sql.parse"), "s"},
      {"engine.plan_s", self("engine.plan"), "s"},
      {"connectors.ocs.get_splits_s", self("connectors.ocs.get_splits"), "s"},
      {"connectors.ocs.translate_s", self("connectors.ocs.translate"), "s"},
      {"substrait.serialize_s", self("substrait.serialize"), "s"},
      {"substrait.plan_bytes", per_query(static_cast<double>(c.plan_bytes)),
       "bytes"},
      {"connectors.ocs.split_cache_s", self("connectors.ocs.split_cache"), "s"},
      {"ocs.exec_plan_s", per_query(layer("ocs.exec_plan").total_s), "s"},
      {"ocs.exec_plan_self_s", self("ocs.exec_plan"), "s"},
      {"ocs.rowgroup_cache_hit_rate",
       Ratio(static_cast<double>(rowgroup.hits),
             static_cast<double>(rowgroup.hits + rowgroup.misses)),
       "ratio"},
      {"ocs.rowgroup_cache_hit_rate_replay",
       Ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.cache_misses)),
       "ratio"},
      {"ocs.rows_scanned", per_query(static_cast<double>(c.rows_scanned)),
       "rows"},
      {"ocs.rows_out_per_in",
       Ratio(static_cast<double>(c.rows_output),
             static_cast<double>(c.rows_scanned)),
       "ratio"},
      {"ocs.rows_dict_filtered",
       per_query(static_cast<double>(c.rows_dict_filtered)), "rows"},
      {"ocs.media_model_s", per_query(c.media_model_s), "s"},
      {"objectstore.get_s", self("objectstore.get"), "s"},
      {"format.footer_s", self("format.footer"), "s"},
      {"compress.decompress_s", self("compress.decompress"), "s"},
      {"compress.decompress_mb_per_s",
       Ratio(static_cast<double>(c.decompressed_bytes) / 1e6, decompress_s),
       "MB/s"},
      {"format.decode_s", self("format.decode"), "s"},
      {"exec.execute_rel_s", self("exec.execute_rel"), "s"},
      {"exec.rows_in", per_query(static_cast<double>(c.exec_rows_in)), "rows"},
      {"exec.rows_out", per_query(static_cast<double>(c.exec_rows_out)),
       "rows"},
      {"columnar.ipc_encode_s", self("columnar.ipc_encode"), "s"},
      {"columnar.ipc_decode_s", self("columnar.ipc_decode"), "s"},
      {"columnar.ipc_bytes", per_query(static_cast<double>(c.ipc_bytes)),
       "bytes"},
      {"ocs.decode_result_s", self("ocs.decode_result"), "s"},
      {"netsim.bytes", per_query(static_cast<double>(c.net_bytes)), "bytes"},
      {"netsim.transfer_model_s", per_query(c.transfer_model_s), "s"},
      {"rpc.call_s", self("rpc.call"), "s"},
      {"rpc.retries", per_query(static_cast<double>(c.rpc_retries)), "count"},
      {"engine.execute_s", execute, "s"},
      {"engine.self_s", execute - replayed, "s"},
      {"engine.post_scan_s", post_scan, "s"},
      {"connectors.ocs.split_cache_hit_rate",
       Ratio(static_cast<double>(split_cache.hits),
             static_cast<double>(split_cache.hits + split_cache.misses)),
       "ratio"},
      {"connectors.ocs.metadata_cache_hit_rate",
       Ratio(static_cast<double>(untraced.metadata_hits),
             static_cast<double>(untraced.metadata_hits +
                                 untraced.metadata_misses +
                                 untraced.metadata_stale)),
       "ratio"},
      {"connectors.ocs.metadata_cache_stale",
       Ratio(static_cast<double>(untraced.metadata_stale), completed),
       "count"},
      {"connectors.ocs.splits_pruned_frac",
       Ratio(static_cast<double>(untraced.splits_pruned),
             static_cast<double>(untraced.splits_planned)),
       "ratio"},
      {"engine.admission_wait_s", Ratio(untraced.admission_wait_s, completed),
       "s"},
      {"objectstore.put_s", Ratio(layer("objectstore.put").self_s, puts), "s"},
      {"format.write_s", Ratio(layer("format.write").self_s, puts), "s"},
      {"format.encode_s", Ratio(layer("format.encode").self_s, puts), "s"},
      {"compress.compress_s", Ratio(layer("compress.compress").self_s, puts),
       "s"},
      {"trace.coverage", Ratio(replayed + post_scan, execute), "ratio"},
      {"trace.overhead_frac", Ratio(traced_p50, untraced_p50) - 1, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  if (!PERFBENCH_OPTIMIZED || PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build; build with "
                 "-DCMAKE_BUILD_TYPE=Release and no sanitizer.\n",
                 PERFBENCH_SANITIZED ? "sanitizer" : "unoptimized");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    Usage(("unknown workload '" + args.workload + "'; one of:" + names).c_str());
  }

  Report report;
  auto env = [&](std::string key, std::string value) {
    report.env.emplace_back(std::move(key), std::move(value));
  };
  env("workload", spec->name);
  env("seed", std::to_string(args.seed));
  env("seconds", std::to_string(args.seconds));
  env("trace", std::to_string(args.trace));
  env("nproc", std::to_string(std::thread::hardware_concurrency()));
  env("compiler", POCS_PERFBENCH_COMPILER);
  env("build_type", POCS_PERFBENCH_BUILD_TYPE);
  env("loop", "closed");
  env("reader_clients", std::to_string(spec->readers));
  env("writer_clients", spec->writer ? "1" : "0");
  env("engine_worker_threads", std::to_string(kEngineWorkers));
  env("storage_nodes", std::to_string(spec->storage_nodes));
  env("datasets", "laghos, deepwater, lineitem: " +
                      std::to_string(kFilesPerDataset) + " files x " +
                      std::to_string(spec->rows_per_file) + " rows, " +
                      std::to_string(kRowsPerGroup) + " rows/group" +
                      (spec->extended_mix ? "; supplier: 1000 rows" : ""));
  env("codec", std::string(pocs::compress::CodecName(spec->codec)));
  env("rowgroup_cache_bytes_per_node",
      std::to_string(spec->rowgroup_cache_bytes));
  env("split_result_cache_bytes",
      std::to_string(spec->connector_caches ? kSplitCacheBytes : 0));
  env("metadata_cache_bytes",
      std::to_string(spec->connector_caches ? kMetadataCacheBytes : 0));

  // ---- set-up, several times; the last testbed is kept ----------------------
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    auto made = Bench::SetUp(*spec, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    bench = std::move(made).value();
  }
  env("dataset_rows", std::to_string(bench->TotalRows()));
  env("queries", [&] {
    std::string names;
    for (const NamedQuery& q : bench->queries) {
      names += (names.empty() ? "" : ",") + q.name;
    }
    return names;
  }());
  if (args.inject_wrong_answer) {
    // Deliberately wrong expectation: the first query is checked against
    // the second query's answer, so its every answer fails the check and
    // the run must exit nonzero.
    bench->reference[0] = bench->reference[1];
  }

  LoopStats all;  // every operation of the run, for attempted/failed
  uint64_t replay_failures = 0;
  std::map<std::string, double> self_per_query;
  if (args.trace == 0) {
    double wall = 0;
    LoopStats loop = RunTimed(*bench, args.seconds, &wall);
    all.Merge(loop);
    const double p95 = Quantile(loop.latency_s, 0.95);
    const auto above = std::count_if(loop.latency_s.begin(),
                                     loop.latency_s.end(),
                                     [p95](double v) { return v > p95; });
    double qps = 0;
    for (double v : loop.client_qps) qps += v;
    env("query_samples", std::to_string(loop.latency_s.size()));
    env("samples_above_p95", std::to_string(above));
    env("put_samples", std::to_string(loop.put_s.size()));
    env("put_latency_p50_s", std::to_string(Quantile(loop.put_s, 0.5)));
    env("phase_wall_s", std::to_string(wall));
    report.end_to_end = {
        {"latency_p50_s", Quantile(loop.latency_s, 0.5), "s"},
        {"latency_p95_s", p95, "s"},
        {"throughput_qps", qps, "1/s"},
        {"model_s_p50", Quantile(loop.model_s, 0.5), "s"},
        {"bytes_moved_per_query", Mean(loop.bytes_from_storage), "bytes"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
    if (above < 10) {
      std::fprintf(stderr,
                   "perfbench: only %ld samples above p95; run longer\n",
                   static_cast<long>(above));
    }
  } else {
    // Untraced phase first (the reference for trace.overhead_frac and the
    // cache outcomes of untraced queries), then the traced phase.
    const CacheCounts rg0 = RowGroupCacheCounts(*bench);
    const CacheCounts sc0 = SplitCacheCounts(*bench);
    double wall = 0;
    LoopStats untraced = RunTimed(*bench, args.seconds * 0.4, &wall);
    const CacheCounts rg1 = RowGroupCacheCounts(*bench);
    const CacheCounts sc1 = SplitCacheCounts(*bench);
    Tracer tracer;
    TraceResult traced = RunTraced(*bench, args.seconds * 0.6, &tracer);
    all.Merge(untraced);
    all.Merge(traced.loop);
    replay_failures = traced.replay_failures;

    const std::vector<Span> spans = tracer.spans();
    const auto layers = SelfTimes(spans);
    report.per_layer = LayerMetrics(
        untraced, Quantile(untraced.latency_s, 0.5),
        {rg1.hits - rg0.hits, rg1.misses - rg0.misses},
        {sc1.hits - sc0.hits, sc1.misses - sc0.misses}, traced, layers,
        &self_per_query);

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace_" + spec->name + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (WriteChromeTrace(spans, path, "perfbench " + spec->name)) {
      env("chrome_trace", path);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    env("traced_queries", std::to_string(traced.loop.latency_s.size()));
    env("spans", std::to_string(spans.size()));
  }

  const uint64_t failed = all.failed + all.refused + all.wrong +
                          all.put_failed + replay_failures;
  const uint64_t attempted = all.attempted + all.put_attempted;
  const bool correct = failed == 0 && attempted > 0;

  std::printf("perfbench environment\n");
  for (const auto& [key, value] : report.env) {
    std::printf("  %-30s %s\n", key.c_str(), value.c_str());
  }
  std::printf("operations: %" PRIu64 " attempted, %" PRIu64
              " failed (errors %" PRIu64 ", refused %" PRIu64
              ", wrong answers %" PRIu64 ", failed puts %" PRIu64
              ", failed replays %" PRIu64 ")\n",
              attempted, failed, all.failed, all.refused, all.wrong,
              all.put_failed, replay_failures);
  std::printf("  %-40s %16.9g ratio\n", "failed_frac",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  if (args.trace == 0) {
    PrintMetrics("end-to-end metrics (tracing off)", report.end_to_end);
  } else {
    PrintMetrics("per-layer metrics (traced run, per query unless noted)",
                 report.per_layer);
    // Self time of each layer as a share of the timed root; engine.self
    // is the root's time no replayed layer explains, and the part of it
    // that engine.post_scan_s does not explain either is unattributed.
    const double root = Find(report.per_layer, "engine.execute_s");
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, s] : self_per_query) rows.emplace_back(s, name);
    std::sort(rows.rbegin(), rows.rend());
    std::printf("self time per query, %s (engine.execute_s = %.6g s)\n",
                spec->name.c_str(), root);
    for (const auto& [s, name] : rows) {
      std::printf("  %-32s %12.6g s %7.2f%%\n", name.c_str(), s,
                  100 * Ratio(s, root));
    }
    const double coverage = Find(report.per_layer, "trace.coverage");
    std::printf("  %-32s %12.6g s %7.2f%%  (1 - trace.coverage)\n",
                "unattributed", root * (1 - coverage), 100 * (1 - coverage));
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  AppendJsonMetrics(&json, args.trace == 0 ? report.end_to_end
                                           : report.per_layer);
  json += "}}";

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string result_path =
      args.out_dir + "/result_" + spec->name + "_seed" +
      std::to_string(args.seed) + "_trace" + std::to_string(args.trace) +
      ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"env\": %s, \"result\": %s}\n", JsonEnv(report).c_str(),
                 json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
