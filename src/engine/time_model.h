// Simulated end-to-end timing (DESIGN.md §4).
//
// Compute is measured (real wall time of real work); network transfer,
// media reads and storage-side compute are aggregated per stage. A scan
// stage takes the sum
//     bytes / shared link bandwidth
//   + Σ storage compute / (storage parallelism × storage nodes)
//   + Σ media reads / storage nodes
//   + Σ compute-side split work / worker threads
//   + per-split latency amortized over parallel workers.
// Summing matches the paper's own end-to-end arithmetic: Fig. 6's
// compression savings equal the avoided media time and Fig. 5's pushdown
// savings the avoided transfer time. It reproduces the paper's regimes:
// transfer-bound when raw data moves (no pushdown), storage-compute-bound
// under full pushdown.
#pragma once

#include <algorithm>
#include <cstdint>

namespace pocs::engine {

struct TimeModelConfig {
  double network_bandwidth_bytes_per_sec = 1.25e9;  // 10 GbE (Table 1)
  double network_latency_sec = 100e-6;
  size_t worker_threads = 8;       // compute-node parallel split workers
  size_t storage_parallelism = 16;  // concurrent requests (storage node has 16 cores)
  size_t storage_nodes = 1;        // OCS backend nodes (media/CPU scale out)
};

struct SplitStageTotals {
  uint64_t bytes_moved = 0;       // storage → compute (+ request bytes)
  uint64_t messages = 0;          // request/response rounds
  double storage_compute_seconds = 0;  // Σ, already cpu-slowdown-scaled
  double media_read_seconds = 0;       // Σ modelled SSD reads (serialized)
  double compute_seconds = 0;          // Σ residual + decode work, measured
  size_t splits = 0;
};

inline double SplitStageSeconds(const SplitStageTotals& totals,
                                const TimeModelConfig& config) {
  const double nodes =
      static_cast<double>(std::max<size_t>(config.storage_nodes, 1));
  double transfer =
      static_cast<double>(totals.bytes_moved) /
      config.network_bandwidth_bytes_per_sec;
  double storage = totals.storage_compute_seconds /
                   (static_cast<double>(std::max<size_t>(
                        config.storage_parallelism, 1)) *
                    nodes);
  double compute = totals.compute_seconds /
                   static_cast<double>(std::max<size_t>(
                       config.worker_threads, 1));
  double parallel = std::max<size_t>(
      std::min(config.worker_threads, std::max<size_t>(totals.splits, 1)), 1);
  double latency = static_cast<double>(totals.messages) *
                   config.network_latency_sec / static_cast<double>(parallel);
  // Media reads serialize per storage node's SSD; objects are spread
  // round-robin, so N nodes read in parallel.
  double media = totals.media_read_seconds / nodes;
  return transfer + storage + compute + media + latency;
}

}  // namespace pocs::engine
