// Load-aware split dispatch for the OCS connector (DESIGN.md §12).
//
// The paper's storage nodes have weak CPUs: under concurrent queries the
// win from pushdown evaporates if every worker piles its ExecutePlan
// dispatches onto one node while the others idle. The dispatcher shapes
// per-node traffic at the connector:
//
//   * GetSplits resolves each split's placement ("Locate" on the
//     frontend) into Split::node_hint and interleaves the split list
//     across nodes, so the engine's in-order fan-out spreads load
//     instead of draining one node's objects first.
//   * CreatePageSource takes a per-node lease before dispatching; at the
//     node's in-flight cap the acquire blocks (backpressure), bounding
//     the queue depth any single storage node sees.
//
// The in-flight plans and bytes per node are this instance's own state,
// under its mutex, and a release wakes only this instance's waiters.
// The cumulative `dispatch.node<i>.plans` registry counters are
// schedule-deterministic — placement is deterministic and every split
// dispatches exactly once — so the bench gate treats them as exact.
//
// One dispatcher instance is shared by every OCS connector of a testbed
// (they front the same cluster); it is internally synchronized.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"

namespace pocs::connectors {

struct SplitDispatcherConfig {
  // Per-node cap on concurrently dispatched plans (0 = track only,
  // never block).
  uint32_t max_inflight_per_node = 4;
  // Per-node cap on in-flight result bytes still being decoded/merged
  // (0 = no byte cap). Secondary signal: a node serving few but huge
  // results is as loaded as one serving many small ones.
  uint64_t max_inflight_bytes_per_node = 0;
};

class SplitDispatcher {
 public:
  SplitDispatcher(SplitDispatcherConfig config, size_t num_nodes);

  // RAII per-node in-flight slot. AddBytes charges result payload to the
  // node's in-flight bytes for the lease's remaining lifetime
  // (call once the response size is known, while decoding/merging).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : dispatcher_(other.dispatcher_),
          node_(other.node_),
          bytes_(other.bytes_) {
      other.dispatcher_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Reset();
        dispatcher_ = other.dispatcher_;
        node_ = other.node_;
        bytes_ = other.bytes_;
        other.dispatcher_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Reset(); }

    void AddBytes(uint64_t bytes);

   private:
    friend class SplitDispatcher;
    Lease(SplitDispatcher* dispatcher, int node)
        : dispatcher_(dispatcher), node_(node) {}
    void Reset();
    SplitDispatcher* dispatcher_ = nullptr;
    int node_ = -1;
    uint64_t bytes_ = 0;
  };

  // Take a dispatch slot on `node`; blocks while the node is at its
  // in-flight caps. node < 0 (unknown placement) is never throttled.
  Lease Dispatch(int node);

  size_t num_nodes() const { return num_nodes_; }

  // Cumulative dispatched plans per node for THIS dispatcher instance
  // (the routing outcome; exact). Per-instance, unlike the registry's
  // process-wide dispatch.node<i>.plans counters, so replay tests can
  // compare two testbeds built in one process.
  std::vector<uint64_t> NodePlanCounts() const POCS_EXCLUDES(mu_);

 private:
  void Release(int node, uint64_t bytes);

  const SplitDispatcherConfig config_;
  const size_t num_nodes_;
  std::vector<metrics::Counter*> node_plans_;

  mutable Mutex mu_;
  std::condition_variable cv_;
  std::vector<uint64_t> inflight_plans_ POCS_GUARDED_BY(mu_);
  std::vector<uint64_t> inflight_bytes_ POCS_GUARDED_BY(mu_);
  std::vector<uint64_t> local_plans_ POCS_GUARDED_BY(mu_);
};

}  // namespace pocs::connectors
