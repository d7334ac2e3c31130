#include "ocs/cluster.h"

#include "substrait/serialize.h"

namespace pocs::ocs {

OcsCluster::OcsCluster(std::shared_ptr<netsim::Network> net,
                       ClusterConfig config)
    : net_(std::move(net)), config_(config) {
  frontend_node_ = net_->AddNode("ocs-frontend");
  frontend_server_ =
      std::make_shared<rpc::Server>(frontend_node_, "ocs-frontend");

  for (size_t i = 0; i < std::max<size_t>(config_.num_storage_nodes, 1);
       ++i) {
    netsim::NodeId node = net_->AddNode("ocs-storage-" + std::to_string(i));
    net_->SetLink(frontend_node_, node, config_.link);
    auto store = std::make_shared<objectstore::ObjectStore>();
    storage_nodes_.push_back(
        std::make_unique<StorageNode>(store, config_.storage));
    auto server = std::make_shared<rpc::Server>(
        node, "ocs-storage-" + std::to_string(i));
    storage_nodes_.back()->RegisterService(server.get());
    storage_servers_.push_back(server);
    storage_channels_.push_back(
        std::make_unique<rpc::Channel>(net_, frontend_node_, server));
  }

  // Frontend methods: ExecutePlan and Select route by the plan's read
  // target; the plain object-store methods route by the (bucket, key)
  // prefix of their request encoding (all start with bucket/key strings).
  for (const char* method : {"ExecutePlan", "Select"}) {
    frontend_server_->RegisterMethod(
        method, [this, method](ByteSpan req) -> Result<Bytes> {
          POCS_RETURN_NOT_OK(CheckFrontendUp());
          POCS_ASSIGN_OR_RETURN(substrait::Plan plan,
                                substrait::DeserializePlan(req));
          const substrait::Rel* read = plan.root.get();
          while (read->input) read = read->input.get();
          return Forward(method, read->bucket, read->object, req);
        });
  }

  for (const char* method : {"Get", "Stat"}) {
    frontend_server_->RegisterMethod(
        method, [this, method](ByteSpan req) -> Result<Bytes> {
          POCS_RETURN_NOT_OK(CheckFrontendUp());
          BufferReader in(req);
          POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
          POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
          return Forward(method, bucket, key, req);
        });
  }

  // DescribeObject is registered separately (not in the generic list):
  // the stats RPC has its own fault switch so chaos can drop it while
  // the data path stays healthy, proving stats are optimization-only.
  frontend_server_->RegisterMethod(
      "DescribeObject", [this](ByteSpan req) -> Result<Bytes> {
        POCS_RETURN_NOT_OK(CheckFrontendUp());
        if (describe_crashed()) {
          return Status::Unavailable("ocs: stats service is down");
        }
        BufferReader in(req);
        POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
        POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
        return Forward("DescribeObject", bucket, key, req);
      });

  frontend_server_->RegisterMethod(
      "List", [this](ByteSpan req) -> Result<Bytes> {
        POCS_RETURN_NOT_OK(CheckFrontendUp());
        // Fan out to all storage nodes and merge sorted key lists.
        std::vector<std::string> all;
        for (const auto& channel : storage_channels_) {
          auto call = channel->Call("List", req);
          if (!call.ok()) {
            if (call.status().code() == StatusCode::kNotFound) continue;
            return call.status();
          }
          BufferReader in(call->response.data(), call->response.size());
          POCS_ASSIGN_OR_RETURN(uint64_t n, in.ReadVarint());
          for (uint64_t i = 0; i < n; ++i) {
            POCS_ASSIGN_OR_RETURN(std::string k, in.ReadString());
            all.push_back(std::move(k));
          }
        }
        std::sort(all.begin(), all.end());
        BufferWriter out;
        out.WriteVarint(all.size());
        for (const std::string& k : all) out.WriteString(k);
        return std::move(out).Take();
      });

  // Placement lookup for the load-aware dispatcher: which storage node
  // would serve this object. Metadata-only — no storage hop is charged,
  // matching Stat's role as the cheap control-plane probe.
  frontend_server_->RegisterMethod(
      "Locate", [this](ByteSpan req) -> Result<Bytes> {
        POCS_RETURN_NOT_OK(CheckFrontendUp());
        BufferReader in(req);
        POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
        POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
        POCS_ASSIGN_OR_RETURN(size_t node, NodeForObject(bucket, key));
        BufferWriter out;
        out.WriteVarint(node);
        out.WriteVarint(storage_nodes_.size());
        return std::move(out).Take();
      });

  frontend_server_->RegisterMethod(
      "Put", [this](ByteSpan req) -> Result<Bytes> {
        POCS_RETURN_NOT_OK(CheckFrontendUp());
        BufferReader in(req);
        POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
        POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
        size_t node = AssignNode(bucket, key);
        POCS_ASSIGN_OR_RETURN(rpc::CallResult call,
                              storage_channels_[node]->Call("Put", req));
        return std::move(call.response);
      });
}

size_t OcsCluster::AssignNode(const std::string& bucket,
                              const std::string& key) {
  MutexLock lock(placement_mu_);
  auto it = placement_.find(bucket + "/" + key);
  if (it != placement_.end()) return it->second;
  size_t chosen = next_node_;
  if (config_.placement == PlacementPolicy::kLeastLoaded) {
    // Balance by stored bytes, not object count: the paper's datasets mix
    // file sizes, and byte skew is what later skews scan load.
    uint64_t best_bytes = UINT64_MAX;
    for (size_t i = 0; i < storage_nodes_.size(); ++i) {
      const uint64_t bytes = storage_nodes_[i]->store()->TotalBytes();
      if (bytes < best_bytes) {
        best_bytes = bytes;
        chosen = i;
      }
    }
  } else {
    next_node_ = (next_node_ + 1) % storage_nodes_.size();
  }
  placement_.emplace(bucket + "/" + key, chosen);
  return chosen;
}

Status OcsCluster::PutObject(const std::string& bucket, const std::string& key,
                             Bytes data) {
  size_t node = AssignNode(bucket, key);
  auto& store = *storage_nodes_[node]->store();
  // Create-if-absent must tolerate a concurrent creator: HasBucket +
  // CreateBucket is a check-then-act race when two ingests target the
  // same new bucket, so AlreadyExists from the loser is success here.
  if (!store.HasBucket(bucket)) {
    Status created = store.CreateBucket(bucket);
    if (!created.ok() && created.code() != StatusCode::kAlreadyExists) {
      return created;
    }
  }
  return store.Put(bucket, key, std::move(data));
}

Result<size_t> OcsCluster::NodeForObject(const std::string& bucket,
                                         const std::string& key) const {
  MutexLock lock(placement_mu_);
  auto it = placement_.find(bucket + "/" + key);
  if (it == placement_.end()) {
    return Status::NotFound("ocs: no placement for " + bucket + "/" + key);
  }
  return it->second;
}

Result<Bytes> OcsCluster::Forward(const std::string& method,
                                  const std::string& bucket,
                                  const std::string& key,
                                  ByteSpan request) const {
  POCS_ASSIGN_OR_RETURN(size_t node, NodeForObject(bucket, key));
  POCS_ASSIGN_OR_RETURN(rpc::CallResult call,
                        storage_channels_[node]->Call(method, request));
  return std::move(call.response);
}

uint64_t OcsCluster::TotalStoredBytes() const {
  uint64_t total = 0;
  for (const auto& node : storage_nodes_) {
    total += node->store()->TotalBytes();
  }
  return total;
}

}  // namespace pocs::ocs
