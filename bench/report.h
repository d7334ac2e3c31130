// Bench plumbing for bench_report: a tiny CLI parser (`--seed`,
// `--scale`, `--smoke`, `--json`) and a schema-versioned JSON report
// writer consumed by tools/check_bench.py.
//
// Determinism contract: benches never seed from the wall clock. Each
// workload has a fixed default seed; `--seed` overrides it so a run can
// be reproduced or varied explicitly. Report metrics are tagged with a
// kind the regression gate interprets:
//   "exact"  — counts (rows, bytes, splits, pruning decisions) that are
//              functions of (seed, scale, code); compared strictly.
//   "timing" — wall-derived values (even "simulated" seconds include a
//              measured-compute component); compared loosely.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace pocs::bench {

// Current schema of the BENCH_*.json files. Bump when the report shape
// changes; tools/check_bench.py refuses to diff mismatched versions.
inline constexpr int kReportSchemaVersion = 1;

struct BenchArgs {
  uint64_t seed = 0;  // meaningful only when seed_set
  bool seed_set = false;
  size_t scale = 1;
  bool smoke = false;       // shrink the workload for CI perf-smoke runs
  std::string json_path;    // empty = no JSON report

  // The workload's fixed default seed unless --seed was given.
  uint64_t SeedOr(uint64_t fallback) const {
    return seed_set ? seed : fallback;
  }
};

inline void PrintBenchUsage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seed N    RNG seed for data generation (default: fixed per\n"
      "              workload; never derived from the clock)\n"
      "  --scale N   dataset scale multiplier, at least 1 (default 1)\n"
      "  --smoke     shrink the workload to CI smoke size\n"
      "  --json P    write a schema-versioned JSON report to P\n"
      "  --help      show this message\n",
      argv0);
}

// True when all of `text` is one unsigned decimal number that fits `*out`.
template <typename T>
bool ParseWholeNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

// Parses the shared flags. Exits on --help (0) or an unknown/malformed
// flag (2) — benches are leaf binaries, so failing fast beats silently
// benchmarking the wrong configuration.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  auto value_of = [&](const char* flag, int& i) -> const char* {
    size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", argv[0], what.c_str());
    PrintBenchUsage(argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintBenchUsage(argv[0]);
      std::exit(0);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
      continue;
    }
    if (const char* v = value_of("--seed", i)) {
      if (!ParseWholeNumber(v, &args.seed)) {
        fail("--seed needs a number, got '" + std::string(v) + "'");
      }
      args.seed_set = true;
      continue;
    }
    if (const char* v = value_of("--scale", i)) {
      if (!ParseWholeNumber(v, &args.scale) || args.scale < 1) {
        fail("--scale needs a number of at least 1, got '" + std::string(v) +
             "'");
      }
      continue;
    }
    if (const char* v = value_of("--json", i)) {
      args.json_path = v;
      continue;
    }
    fail("unknown argument '" + std::string(argv[i]) + "'");
  }
  return args;
}

// ---------------------------------------------------------------------------
// JSON report

enum class MetricClass { kExact, kTiming };

struct ReportMetric {
  std::string name;
  MetricClass cls = MetricClass::kExact;
  double value = 0;
  std::string unit;
};

class BenchReport {
 public:
  BenchReport(std::string suite, const BenchArgs& args)
      : suite_(std::move(suite)), args_(args) {}

  void AddExact(const std::string& name, double value,
                const std::string& unit = "") {
    metrics_.push_back({name, MetricClass::kExact, value, unit});
  }
  void AddTiming(const std::string& name, double seconds) {
    metrics_.push_back({name, MetricClass::kTiming, seconds, "seconds"});
  }

  std::string ToJson() const {
    std::string out;
    out += "{\n";
    out += "  \"schema_version\": " + std::to_string(kReportSchemaVersion) +
           ",\n";
    out += "  \"suite\": \"" + Escape(suite_) + "\",\n";
    out += "  \"smoke\": " + std::string(args_.smoke ? "true" : "false") +
           ",\n";
    out += "  \"scale\": " + std::to_string(args_.scale) + ",\n";
    out += args_.seed_set
               ? "  \"seed\": " + std::to_string(args_.seed) + ",\n"
               : std::string("  \"seed\": null,\n");
    out += "  \"metrics\": [\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const ReportMetric& m = metrics_[i];
      out += "    {\"name\": \"" + Escape(m.name) + "\", \"kind\": \"" +
             (m.cls == MetricClass::kExact ? "exact" : "timing") +
             "\", \"value\": " + FormatDouble(m.value);
      if (!m.unit.empty()) out += ", \"unit\": \"" + Escape(m.unit) + "\"";
      out += "}";
      if (i + 1 < metrics_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  // Returns false (with a message on stderr) if the file can't be written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write report to %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size()) {
      std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %zu metrics to %s\n", metrics_.size(), path.c_str());
    return true;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
        continue;
      }
      out += c;
    }
    return out;
  }

  static std::string FormatDouble(double v) {
    // Integral values (counters) print without a fraction so diffs read
    // cleanly; %.17g keeps full precision for timings.
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -1e15 && v < 1e15) {
      return std::to_string(static_cast<long long>(v));
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string suite_;
  BenchArgs args_;
  std::vector<ReportMetric> metrics_;
};

}  // namespace pocs::bench
