// OCS cluster wiring: a frontend node plus one or more storage nodes on
// the simulated network (the paper's hierarchical OCS design, §5.1). The
// frontend exposes the unified endpoint: it parses incoming IR plans,
// resolves which storage node holds the target object, forwards the plan,
// and relays the Arrow result — charging frontend↔storage traffic to the
// network on the way.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "netsim/network.h"
#include "ocs/storage_node.h"
#include "rpc/rpc.h"

namespace pocs::ocs {

// How ingest places new objects across storage nodes. Both policies are
// deterministic given the ingest order, so a rebuilt cluster reproduces
// the same placement — the concurrency tier's replay checks rely on it.
enum class PlacementPolicy : uint8_t {
  kRoundRobin,   // by call order
  kLeastLoaded,  // node with the fewest stored bytes (ties: lowest index)
};

struct ClusterConfig {
  size_t num_storage_nodes = 1;
  StorageNodeConfig storage;
  netsim::LinkConfig link = netsim::TenGbE();
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
};

class OcsCluster {
 public:
  OcsCluster(std::shared_ptr<netsim::Network> net, ClusterConfig config);

  // Ingest: place an object on a storage node (round-robin by call order)
  // and record the placement in the frontend's registry.
  Status PutObject(const std::string& bucket, const std::string& key,
                   Bytes data);

  // The frontend's RPC server — compute-side clients connect here for
  // "ExecutePlan", "Select" and the object-store methods (all of which
  // the frontend proxies to the owning storage node).
  const std::shared_ptr<rpc::Server>& frontend_server() const {
    return frontend_server_;
  }
  netsim::NodeId frontend_node() const { return frontend_node_; }

  size_t num_storage_nodes() const { return storage_nodes_.size(); }
  const StorageNode& storage_node(size_t i) const { return *storage_nodes_[i]; }
  StorageNode& mutable_storage_node(size_t i) { return *storage_nodes_[i]; }

  // Crash the frontend process: every frontend method (ExecutePlan,
  // Select and the proxied object-store calls) rejects with kUnavailable
  // until un-crashed. Unlike a storage-node exec crash there is no
  // fallback path around a dead frontend — it is the cluster's single
  // endpoint.
  void SetFrontendCrashed(bool crashed) {
    frontend_crashed_.store(crashed, std::memory_order_relaxed);
  }
  bool frontend_crashed() const {
    return frontend_crashed_.load(std::memory_order_relaxed);
  }

  // Drop only the DescribeObject stats RPC (frontend otherwise healthy):
  // the chaos `stats-drop` profile uses this to prove planning degrades
  // to unpruned splits — stats are an optimization, never a correctness
  // dependency (DESIGN.md §13.3).
  void SetDescribeCrashed(bool crashed) {
    describe_crashed_.store(crashed, std::memory_order_relaxed);
  }
  bool describe_crashed() const {
    return describe_crashed_.load(std::memory_order_relaxed);
  }

  // Total on-storage footprint across nodes.
  uint64_t TotalStoredBytes() const;

 private:
  Status CheckFrontendUp() const {
    if (frontend_crashed()) {
      return Status::Unavailable("ocs: frontend is down");
    }
    return Status::OK();
  }
  Result<size_t> NodeForObject(const std::string& bucket,
                               const std::string& key) const;
  // Existing placement if present, else assign round-robin and record it.
  size_t AssignNode(const std::string& bucket, const std::string& key);
  // Forward a raw RPC to the owning node, charging the internal hop.
  Result<Bytes> Forward(const std::string& method, const std::string& bucket,
                        const std::string& key, ByteSpan request) const;

  std::shared_ptr<netsim::Network> net_;
  ClusterConfig config_;
  netsim::NodeId frontend_node_;
  std::shared_ptr<rpc::Server> frontend_server_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  std::vector<std::shared_ptr<rpc::Server>> storage_servers_;
  std::vector<std::unique_ptr<rpc::Channel>> storage_channels_;
  // Placement registry, shared by ingest and the RPC handlers, which run
  // on engine worker threads concurrently. Per-instance (was a global
  // mutex, which serialized unrelated clusters against each other).
  mutable Mutex placement_mu_;
  // "bucket/key" -> node index
  std::map<std::string, size_t> placement_ POCS_GUARDED_BY(placement_mu_);
  size_t next_node_ POCS_GUARDED_BY(placement_mu_) = 0;
  std::atomic<bool> frontend_crashed_{false};
  std::atomic<bool> describe_crashed_{false};
};

}  // namespace pocs::ocs
