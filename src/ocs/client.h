// Compute-side client for OCS: serializes IR plans, calls the frontend's
// ExecutePlan (or Select) over the simulated network, and decodes the
// result frames.
#pragma once

#include "columnar/ipc.h"
#include "objectstore/service.h"
#include "ocs/storage_node.h"
#include "rpc/rpc.h"
#include "substrait/serialize.h"

namespace pocs::ocs {

class OcsClient {
 public:
  explicit OcsClient(rpc::Channel channel) : channel_(std::move(channel)) {}

  // Ship the plan, execute in storage, return stats + the decoded table.
  // On failure, `info` still reports the modelled cost of the lost
  // attempts (retries and backoff), so callers can charge the rejection.
  Result<OcsResult> ExecutePlan(const substrait::Plan& plan,
                                objectstore::TransferInfo* info = nullptr,
                                const rpc::CallOptions& options = {}) const {
    return CallPlan("ExecutePlan", plan, info, options);
  }

  // S3 Select: the same call for a Read → [Filter] → [Project] plan; the
  // result's payload is CSV (objectstore::SelectCsvText).
  Result<OcsResult> Select(const substrait::Plan& plan,
                           objectstore::TransferInfo* info = nullptr,
                           const rpc::CallOptions& options = {}) const {
    return CallPlan("Select", plan, info, options);
  }

  // Placement probe: which storage node (index) serves bucket/key, plus
  // the cluster's node count. Metadata-only; feeds Split::node_hint for
  // the load-aware dispatcher.
  struct Placement {
    size_t node = 0;
    size_t num_nodes = 0;
  };
  Result<Placement> LocateObject(const std::string& bucket,
                                 const std::string& key,
                                 objectstore::TransferInfo* info = nullptr,
                                 const rpc::CallOptions& options = {}) const {
    BufferWriter req;
    req.WriteString(bucket);
    req.WriteString(key);
    Bytes request = std::move(req).Take();
    rpc::CallResult call;
    Status status = channel_.CallInto(
        "Locate", ByteSpan(request.data(), request.size()), options, &call);
    if (info) info->Add(call);
    POCS_RETURN_NOT_OK(status);
    BufferReader in(call.response.data(), call.response.size());
    Placement placement;
    POCS_ASSIGN_OR_RETURN(uint64_t node, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(uint64_t num_nodes, in.ReadVarint());
    placement.node = static_cast<size_t>(node);
    placement.num_nodes = static_cast<size_t>(num_nodes);
    return placement;
  }

  // The underlying channel to the frontend — the connectors' raw GETs and
  // engine-side fallbacks build a StorageClient on it to fetch objects.
  const rpc::Channel& channel() const { return channel_; }

  // Decode the Arrow payload of a result into columns that are slices of
  // it.
  static Result<std::shared_ptr<columnar::Table>> DecodeTable(
      const OcsResult& result) {
    return columnar::ipc::DeserializeTable(result.arrow_ipc);
  }

 private:
  Result<OcsResult> CallPlan(const char* method, const substrait::Plan& plan,
                             objectstore::TransferInfo* info,
                             const rpc::CallOptions& options) const {
    Bytes request = substrait::SerializePlan(plan);
    rpc::CallResult call;
    Status status = channel_.CallInto(
        method, ByteSpan(request.data(), request.size()), options, &call);
    if (info) info->Add(call);
    POCS_RETURN_NOT_OK(status);
    // The response becomes the shared owner of the payload and, once
    // decoded, of every result column: no result byte is copied.
    return DecodeOcsResult(Buffer::Adopt(std::move(call.response)));
  }

  rpc::Channel channel_;
};

}  // namespace pocs::ocs
