// Process-wide, thread-safe registry of named counters and duration
// histograms (DESIGN.md §8.1).
//
// Each fact is counted once. Per-query counts reach the registry only
// through the engine's fold: QueryStatsCollector adds every completed
// query's QueryCounters as `engine.<counter>` (CounterExporter in
// common/counters.h). The other names hold what no per-query record
// owns — rpc and netsim wire totals, storage-side exec.* work, admission,
// dispatch routing and cache hit/miss/insert/eviction counts — and the
// bench harness snapshots them all into BENCH_*.json as `process.*`.
//
// Concurrency contract: all metric updates are lock-free atomic ops, so
// hot paths (per-batch, per-transfer) pay one relaxed RMW. Registry
// lookups take a mutex — call sites cache the returned reference
// (metrics never die; see Registry). TSan-clean by construction: the
// only non-atomic state is the name map, which is mutex-protected.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace pocs::metrics {

// Monotonically increasing event/byte/row count.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Durations: a sample count and their sum in nanoseconds — the count and
// mean the bench reports.
class Histogram {
 public:
  // Negative or NaN seconds count as zero; huge values saturate.
  void Record(double seconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_seconds() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

enum class MetricKind : uint8_t { kCounter, kHistogram };

// Point-in-time view of one metric, for reports.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  // Counter value (histograms: sample count).
  uint64_t value = 0;
  // Histogram-only mean, in seconds.
  double mean = 0;
};

// Named metric registry. Get-or-create returns stable references: metrics
// are never removed, so call sites may cache them in function-local
// statics (`static auto& c = Registry::Default().GetCounter("x");`).
class Registry {
 public:
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // All metrics, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  // The process-wide registry every built-in instrument records into.
  static Registry& Default();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ POCS_GUARDED_BY(mu_);
};

}  // namespace pocs::metrics
