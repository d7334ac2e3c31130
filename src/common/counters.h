// Per-query counters, each declared exactly once.
//
// Three X-macro lists below hold one X(type, name) line per counter, with
// its definition as the line's comment. The list a counter sits in names
// the layer that counts it:
//
//   POCS_STORAGE_COUNTERS  per plan, at the storage node (OcsResult wire)
//   POCS_SPLIT_COUNTERS    per split, in the connector's page source
//   POCS_QUERY_COUNTERS    per query, in the engine
//
// From them this header generates the nested counter structs
//
//   StorageCounters ⊂ SplitCounters ⊂ QueryCounters
//
// (the fields plus `+=`), the ForEachCounter visitor and CounterExporter,
// which mirrors the counts into the process metrics registry. Every stats
// struct of the pipeline is built on them: ocs::OcsExecStats (one storage
// plan), connector::PageSourceStats (one split), connector::QueryStats
// (one query, returned as QueryResult::metrics and carried as
// QueryEvent::stats) and QueryStatsCollector::Totals (summed over
// queries). A per-query sum is therefore always `+=` of the level below.
//
// A counter is either a `uint64_t` count — exact, summed, exported to the
// registry — or a `double` of seconds — summed, never exported. Adding a
// counter is one line in the right list plus the code that increments it
// (DESIGN.md §8.2).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/metrics.h"

// Carried back on the OcsResult wire in list order: the counts as
// varints, then the plan's object version, then the seconds as
// little-endian doubles. Reordering or inserting a storage counter
// changes the wire (pinned by OcsResultWireTest). The hint and bloom
// counts are only taken when their version pin matched the object.
#define POCS_STORAGE_COUNTERS(X)                                             \
  X(uint64_t, rows_scanned)            /* rows touched at/near storage */    \
  X(uint64_t, rows_output)             /* rows the pushed plan output */     \
  X(uint64_t, object_bytes_read)       /* storage-media bytes touched */     \
  X(uint64_t, row_groups_total)        /* chunks the scan considered */      \
  X(uint64_t, row_groups_skipped)      /* pruned by chunk min/max stats */   \
  X(uint64_t, row_groups_lazy_skipped) /* predicate columns matched none */  \
  X(uint64_t, row_groups_hint_skipped) /* skipped on the planner's hint */   \
  X(uint64_t, cache_hits)              /* hits at any cache level */         \
  X(uint64_t, cache_misses)            /* ... and misses */                  \
  X(uint64_t, cache_bytes_saved)       /* media/network bytes hits saved */  \
  X(uint64_t, bloom_rows_pruned)       /* dropped by the join-key bloom */   \
  X(uint64_t, rows_dict_filtered)      /* rejected in the code domain */     \
  X(uint64_t, rows_late_materialized)  /* strings decoded under selection */ \
  X(double, storage_compute_seconds)   /* measured x cpu_slowdown + delay */ \
  X(double, media_read_seconds)        /* modelled media read time */        \
  X(double, exec_delay_seconds)        /* injected slow-node delay */

// Counted by the connector around the storage call. Fallback scans and
// cache hits count here too, under the same names.
#define POCS_SPLIT_COUNTERS(X)                                               \
  X(uint64_t, bytes_from_storage)       /* bytes storage → compute */        \
  X(uint64_t, bytes_to_storage)         /* plan bytes compute → storage */   \
  X(uint64_t, rows_returned)            /* rows that crossed to compute */   \
  X(uint64_t, retries)                  /* rpc attempts beyond the first */  \
  X(uint64_t, failed_splits)            /* pushdown dispatch rejected */     \
  X(uint64_t, fallbacks)                /* recovered by engine-side scan */  \
  X(uint64_t, bytes_refetched_on_retry) /* bytes of calls that retried */    \
  X(double, transfer_seconds)           /* modelled network time */          \
  X(double, ir_generation_seconds)      /* plan → Substrait IR (Table 3) */  \
  X(double, decode_seconds)             /* result → pages at compute */

// Counted by the engine: split planning, pushdown negotiation, the merge
// stage and the Table 3 stage breakdown (DESIGN.md §4).
#define POCS_QUERY_COUNTERS(X)                                               \
  X(uint64_t, result_rows)             /* rows of the answer */              \
  X(uint64_t, splits)                  /* splits executed */                 \
  X(uint64_t, splits_planned)          /* candidates before pruning */       \
  X(uint64_t, splits_pruned)           /* dropped by stats, no data RPC */   \
  X(uint64_t, metadata_cache_hits)     /* stats cached, version fresh */     \
  X(uint64_t, metadata_cache_misses)   /* not cached, fetched by RPC */      \
  X(uint64_t, metadata_cache_stale)    /* cached but stale, refetched */     \
  X(uint64_t, metadata_cache_errors)   /* stats path failed, unpruned */     \
  X(uint64_t, pushdown_offered)        /* operators offered to storage */    \
  X(uint64_t, pushdown_accepted)       /* ... of which accepted */           \
  X(uint64_t, pushdown_rejected)       /* ... of which rejected */           \
  X(uint64_t, partial_agg_accepted)    /* partial aggregations pushed */     \
  X(uint64_t, partial_agg_rejected)    /* ... and refused */                 \
  X(uint64_t, bloom_pushed)            /* join-key blooms attached */        \
  X(uint64_t, partial_agg_merges)      /* partial rows merged at compute */  \
  X(double, logical_plan_analysis)     /* analyze, optimize, negotiate */    \
  X(double, pushdown_and_transfer)     /* modelled scan stage */             \
  X(double, post_scan_execution)       /* residual + merge compute */        \
  X(double, others)                    /* parse, setup, result assembly */   \
  X(double, total)                     /* modelled end to end */             \
  X(double, admission_queue_seconds)   /* enqueue → grant wait (wall) */     \
  X(double, wall_seconds)              /* measured coordinator wall time */

namespace pocs {

#define POCS_COUNTER_FIELD(type, name) type name = 0;
#define POCS_COUNTER_ADD(type, name) name += other.name;

struct StorageCounters {
  POCS_STORAGE_COUNTERS(POCS_COUNTER_FIELD)

  StorageCounters& operator+=(const StorageCounters& other) {
    POCS_STORAGE_COUNTERS(POCS_COUNTER_ADD)
    return *this;
  }
};

struct SplitCounters : StorageCounters {
  POCS_SPLIT_COUNTERS(POCS_COUNTER_FIELD)

  using StorageCounters::operator+=;
  SplitCounters& operator+=(const SplitCounters& other) {
    StorageCounters::operator+=(other);
    POCS_SPLIT_COUNTERS(POCS_COUNTER_ADD)
    return *this;
  }

  uint64_t bytes_moved() const { return bytes_from_storage + bytes_to_storage; }
};

struct QueryCounters : SplitCounters {
  POCS_QUERY_COUNTERS(POCS_COUNTER_FIELD)

  using SplitCounters::operator+=;
  QueryCounters& operator+=(const QueryCounters& other) {
    SplitCounters::operator+=(other);
    POCS_QUERY_COUNTERS(POCS_COUNTER_ADD)
    return *this;
  }
};

#undef POCS_COUNTER_ADD
#undef POCS_COUNTER_FIELD

// True for a count (uint64_t), false for seconds (double); takes the
// decltype of a ForEachCounter value.
template <typename V>
inline constexpr bool kIsCount =
    std::is_same_v<std::remove_cvref_t<V>, uint64_t>;

// Calls f(name, value) for every counter of `counters`, in list order
// (storage, then split, then query). `value` is a reference to the field,
// const when `counters` is.
template <typename Counters, typename F>
void ForEachCounter(Counters& counters, F&& f) {
  using C = std::remove_const_t<Counters>;
#define POCS_COUNTER_VISIT(type, name) \
  f(std::string_view(#name), counters.name);
  if constexpr (std::is_base_of_v<StorageCounters, C>) {
    POCS_STORAGE_COUNTERS(POCS_COUNTER_VISIT)
  }
  if constexpr (std::is_base_of_v<SplitCounters, C>) {
    POCS_SPLIT_COUNTERS(POCS_COUNTER_VISIT)
  }
  if constexpr (std::is_base_of_v<QueryCounters, C>) {
    POCS_QUERY_COUNTERS(POCS_COUNTER_VISIT)
  }
#undef POCS_COUNTER_VISIT
}

// Adds every count of a `Counters` struct to the process registry counter
// "<prefix>.<name>". The constructor resolves the Counter&s, so build one
// per call site as a function-local static; Add never takes the registry
// lock.
template <typename Counters>
class CounterExporter {
 public:
  explicit CounterExporter(std::string_view prefix) {
    auto& registry = metrics::Registry::Default();
    const Counters names{};
    ForEachCounter(names, [&](std::string_view name, const auto& value) {
      if constexpr (kIsCount<decltype(value)>) {
        counters_.push_back(&registry.GetCounter(std::string(prefix) + "." +
                                                 std::string(name)));
      }
    });
  }

  void Add(const Counters& counters) const {
    size_t i = 0;
    ForEachCounter(counters, [&](std::string_view, const auto& value) {
      if constexpr (kIsCount<decltype(value)>) counters_[i++]->Add(value);
    });
  }

 private:
  std::vector<metrics::Counter*> counters_;
};

}  // namespace pocs
